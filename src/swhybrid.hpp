#pragma once

/// Umbrella header: the swhybrid public API.
///
/// The library reproduces "Biological Sequence Comparison on Hybrid
/// Platforms with Dynamic Workload Adjustment" (Mendonça & de Melo,
/// IPDPSW 2013). The usual entry points:
///
///  * pairwise scoring/alignment   — align/ (StripedAligner,
///    sw_score_affine, sw_align_affine_lowmem, nw_align_affine)
///  * sequence I/O                 — io/ (FASTA + the indexed format)
///  * synthetic data               — db/ (generator, Table II presets)
///  * hit statistics               — align/evalue.hpp
///  * the scheduling contribution  — core/ (SchedulerCore, policies)
///  * compute engines              — engines/
///  * threaded execution           — runtime/HybridRuntime
///  * simulated platforms          — sim/ (discrete-event simulator)

#include "align/alignment.hpp"      // IWYU pragma: export
#include "align/alphabet.hpp"       // IWYU pragma: export
#include "align/evalue.hpp"         // IWYU pragma: export
#include "align/local_align.hpp"    // IWYU pragma: export
#include "align/score_matrix.hpp"   // IWYU pragma: export
#include "align/sequence.hpp"       // IWYU pragma: export
#include "align/striped.hpp"        // IWYU pragma: export
#include "align/sw_scalar.hpp"      // IWYU pragma: export
#include "align/traceback.hpp"      // IWYU pragma: export
#include "core/policy.hpp"          // IWYU pragma: export
#include "core/results.hpp"         // IWYU pragma: export
#include "core/scheduler.hpp"       // IWYU pragma: export
#include "db/database.hpp"          // IWYU pragma: export
#include "db/presets.hpp"           // IWYU pragma: export
#include "engines/cpu_engine.hpp"   // IWYU pragma: export
#include "engines/sim_gpu_engine.hpp"   // IWYU pragma: export
#include "engines/throttled_engine.hpp" // IWYU pragma: export
#include "io/fasta.hpp"             // IWYU pragma: export
#include "io/indexed.hpp"           // IWYU pragma: export
#include "runtime/hybrid_runtime.hpp"   // IWYU pragma: export
#include "sim/simulator.hpp"        // IWYU pragma: export
