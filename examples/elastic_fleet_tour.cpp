// Example: the elastic-fleet runtime in one sitting — diurnal arrival
// waves hit a small paid base fleet, the autoscaler mints burst nodes
// when the backlog builds and drains them at the trough, a spot
// revocation reclaims one base node mid-run, and fair-share preemption
// keeps the tenant pools honest. Compare the static run (same fleet, no
// elasticity) printed alongside.
//
//   ./elastic_fleet_tour [seed]
//
// A similar scenario runs from the CLI, on the 12-node Hydra fleet (one
// command):
//   rupam_sim --tenants 3 --arrivals 0.05 --duration 240 --diurnal 1.0
//             --diurnal-period 120 --autoscale 6 --preempt
//             --spot-plan "spot@100:node=1:notice=10" --pool-policy fair
#include <cstdlib>
#include <iostream>

#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "faults/fault_plan.hpp"

int main(int argc, char** argv) {
  using namespace rupam;
  std::uint64_t seed = argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 1;
  Logger::set_level(LogLevel::kError);  // the tables are the story here

  auto make_config = [&](bool elastic) {
    SimulationConfig cfg;
    cfg.scheduler = SchedulerKind::kRupam;
    cfg.seed = seed;
    cfg.pools.policy = PoolPolicy::kFair;

    NodeClassMix base;
    base.name = "base";
    base.count = 4;
    base.base = hulk_spec();
    base.base.hourly_cost = 1.0;  // paid instances: the bill follows membership
    FleetSpec fleet;
    fleet.name = "elastic-tour";
    fleet.seed = seed;
    fleet.classes = {base};
    cfg.nodes = generate_fleet(fleet);

    // One base node is reclaimed by the spot market mid-run: 10 s of
    // drain notice, then a permanent decommission.
    cfg.faults = parse_fault_spec("spot@100:node=1:notice=10");

    if (elastic) {
      cfg.autoscale.enabled = true;
      cfg.autoscale.max_nodes = 6;
      cfg.autoscale.scale_up_step = 2;
      cfg.autoscale.boot_delay = 8.0;
      cfg.autoscale.idle_drain_after = 20.0;
      NodeClassMix burst = base;
      burst.name = "burst";
      cfg.autoscale_class = burst;
      cfg.preemption.enabled = true;
    }
    return cfg;
  };

  TextTable table({"Variant", "Jobs", "Mean JCT (s)", "p95 (s)", "Cost (node-h)",
                   "Scale ups/downs", "Preemptions", "Spot revokes"});
  for (bool elastic : {false, true}) {
    Simulation sim(make_config(elastic));

    ArrivalConfig arrivals;
    arrivals.rate = 0.05;
    arrivals.duration = 240.0;
    arrivals.tenants = 3;
    arrivals.seed = seed;
    arrivals.iterations_override = 1;
    arrivals.mix = {"GM", "PR"};
    arrivals.diurnal_amplitude = 1.0;  // trough 0, peak 2x the mean rate
    arrivals.diurnal_period = 120.0;
    SubmissionStream stream = make_poisson_stream(arrivals, sim.cluster().node_ids());

    TenantRunReport report = sim.run(stream);
    std::size_t ups = 0, downs = 0;
    if (sim.autoscaler() != nullptr) {
      ups = sim.autoscaler()->scale_ups();
      downs = sim.autoscaler()->scale_downs();
    }
    table.add_row({elastic ? "elastic (autoscale+preempt)" : "static",
                   std::to_string(report.jobs.size()), format_fixed(report.overall.mean, 1),
                   format_fixed(report.overall.p95, 1),
                   format_fixed(sim.cluster().provisioned_cost(sim.sim().now()), 2),
                   std::to_string(ups) + "/" + std::to_string(downs),
                   std::to_string(sim.scheduler().preemptions()),
                   std::to_string(sim.injector() ? sim.injector()->spot_revocations() : 0)});
  }
  table.print(std::cout);
  std::cout << "\nThe elastic run pays only for burst capacity it actually held, and\n"
               "the spot-revoked node is never resurrected — its tasks resubmit and\n"
               "finish elsewhere.\n";
  return 0;
}
