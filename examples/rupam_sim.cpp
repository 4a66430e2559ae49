// The command-line front end: run any Table III workload under any of
// the five schedulers, with optional utilization sampling and trace
// export. `rupam_sim --help` for options; bad input exits 2 with the
// parser's one-line message.
#include <iostream>

#include "app/cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto options = rupam::parse_cli(args, std::cerr);
  if (!options) return 2;
  return rupam::run_cli(*options, std::cout, std::cerr);
}
