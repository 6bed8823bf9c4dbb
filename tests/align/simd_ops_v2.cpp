// The vector backend checks of the ISA tier x86-64-v2.
#define SWH_TIER 2
#include "simd_ops_tier.hpp"
