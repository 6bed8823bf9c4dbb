// The kernels of the ISA tier x86-64-v2 (simd/tier.hpp).
#define SWH_TIER 2
#include "align/kernels_tier.hpp"
