// Umbrella header: the complete public API of the nldl library.
//
// nldl reproduces "Non-Linear Divisible Loads: There is No Free Lunch"
// (Beaumont, Larchevêque, Marchal — IPDPS 2013 / INRIA RR-8170):
//   - core/       the paper's strategies, experiments, and analyses
//   - dlt/        linear + nonlinear divisible-load allocators
//   - partition/  PERI-SUM / PERI-MAX square partitioning, block strategies
//   - sort/       parallel sample sort (the "almost linear" workload)
//   - linalg/     executable outer product and matmul with comm accounting
//   - mapreduce/  mini MapReduce engine + heterogeneous cluster simulator
//   - online/     open-system multi-job scheduling: arrivals, queueing,
//                 pluggable multi-load schedulers, service metrics
//   - platform/   heterogeneous star platforms and speed distributions
//   - sim/        event-driven schedule engine + pluggable comm models
//   - util/       RNG, statistics, root-finding, tables, thread pool
#pragma once

#include "core/experiments.hpp"    // IWYU pragma: export
#include "core/no_free_lunch.hpp"  // IWYU pragma: export
#include "core/strategies.hpp"     // IWYU pragma: export
#include "dlt/analysis.hpp"        // IWYU pragma: export
#include "dlt/linear_dlt.hpp"      // IWYU pragma: export
#include "dlt/nonlinear_dlt.hpp"   // IWYU pragma: export
#include "dlt/multi_round.hpp"     // IWYU pragma: export
#include "dlt/return_messages.hpp"  // IWYU pragma: export
#include "linalg/block_cyclic.hpp"  // IWYU pragma: export
#include "linalg/matmul.hpp"       // IWYU pragma: export
#include "linalg/matmul_25d.hpp"   // IWYU pragma: export
#include "linalg/matrix.hpp"       // IWYU pragma: export
#include "linalg/outer_product.hpp"  // IWYU pragma: export
#include "mapreduce/cluster_sim.hpp"  // IWYU pragma: export
#include "mapreduce/engine.hpp"    // IWYU pragma: export
#include "mapreduce/matmul_job.hpp"  // IWYU pragma: export
#include "mapreduce/outer_product_job.hpp"  // IWYU pragma: export
#include "mapreduce/speculation.hpp"  // IWYU pragma: export
#include "online/arrivals.hpp"     // IWYU pragma: export
#include "online/job.hpp"          // IWYU pragma: export
#include "online/metrics.hpp"      // IWYU pragma: export
#include "online/scheduler.hpp"    // IWYU pragma: export
#include "online/server.hpp"       // IWYU pragma: export
#include "partition/block_homogeneous.hpp"  // IWYU pragma: export
#include "partition/layout.hpp"    // IWYU pragma: export
#include "partition/lower_bound.hpp"  // IWYU pragma: export
#include "partition/peri_max.hpp"  // IWYU pragma: export
#include "partition/peri_sum.hpp"  // IWYU pragma: export
#include "partition/recursive_bisection.hpp"  // IWYU pragma: export
#include "platform/platform.hpp"   // IWYU pragma: export
#include "platform/speed_distributions.hpp"  // IWYU pragma: export
#include "sim/comm_model.hpp"      // IWYU pragma: export
#include "sim/engine.hpp"          // IWYU pragma: export
#include "sim/trace.hpp"           // IWYU pragma: export
#include "sort/distributed.hpp"    // IWYU pragma: export
#include "sort/merge_sort.hpp"     // IWYU pragma: export
#include "sort/sample_sort.hpp"    // IWYU pragma: export
#include "sort/theory.hpp"         // IWYU pragma: export
