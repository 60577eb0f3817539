// Intentionally empty. The benchmark harness (accbench/harness/campaign.cpp)
// still includes this header; every AccMoS run executes the compiled library.
#pragma once
