// The kernels of the ISA tier x86-64-v3 (simd/tier.hpp).
#define SWH_TIER 3
#include "align/kernels_tier.hpp"
