// The vector backend checks of the ISA tier x86-64-v3.
#define SWH_TIER 3
#include "simd_ops_tier.hpp"
