/**
 * @file
 * The three benchmark workloads. Each builds its inputs from the seed
 * alone, runs closed-loop (the next operation starts when the previous
 * one returns; simulated arrival times never pace the host), checks
 * the simulated results, and fills an Outcome with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"
#include "layers.hh"

namespace perfbench {

/** Heterogeneous multi-process fleet (fork/exec, pipe IPC, stores). */
Outcome runFleetWorkload(const Options &opt);

/** Long warm-cache preemptive timeline cut into checkpointed shards. */
Outcome runTrainWorkload(const Options &opt);

/** Long Auto-fidelity timeline served mostly by the surrogate. */
Outcome runSurrogateWorkload(const Options &opt);

/**
 * The fleet layer measured on a fleet of one device per worker, run
 * in-process and across processes: the transport's fixed cost. The
 * train and surrogate workloads report their fleet.* metrics from it.
 */
FleetLayer fleetTransportProbe(const Options &opt, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
