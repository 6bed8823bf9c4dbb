// The kernels of the ISA tier x86-64-v4 (simd/tier.hpp).
#define SWH_TIER 4
#include "align/kernels_tier.hpp"
