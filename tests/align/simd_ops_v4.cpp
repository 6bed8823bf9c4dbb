// The vector backend checks of the ISA tier x86-64-v4.
#define SWH_TIER 4
#include "simd_ops_tier.hpp"
