#pragma once

// Values the correctness gate compares against, recorded from a known-good
// build. Regenerate both tables with
//   sesp_perfbench --workload <conformance|exhaustive> --seed 1 --seconds 1
//                  --trace 0 --record-expected
// and review the diff: a changed value means the library's output changed.

#include <cstdint>

namespace perfbench::expected {

// Cases per model x substrate cell in one conformance batch.
inline constexpr std::int64_t kConformanceCasesPerCell = 20;

struct ConformanceDigest {
  std::uint64_t base_seed;
  const char* digest;  // ConformanceReport::digest
};

// One entry per batch of the pool, in pool order.
inline constexpr ConformanceDigest kConformance[] = {
    {1000, "fe2df5bffac4f5e6"},
    {1001, "8017ca623031a350"},
    {1002, "b985ec211f05ebbf"},
    {1003, "ad0062aef388bd48"},
    {1004, "0987296537f4b193"},
    {1005, "8d91922a6aa4c3dc"},
    {1006, "5ec683b98db316c6"},
    {1007, "8dd4e0aaa12514dc"},
    {1008, "d6837ed065c5a567"},
    {1009, "106c99f54abb0746"},
    {1010, "1f5bb07107071147"},
    {1011, "4859b25f6cc29241"},
    {1012, "f78866439ea0f12c"},
    {1013, "3239c5036ad39b80"},
    {1014, "e84dc3a2933df4b8"},
    {1015, "492f5a8ceb2e077d"},
    {1016, "4b0b9929f72ee948"},
    {1017, "b7a8383374a4e3d6"},
    {1018, "8bf422274f26e906"},
    {1019, "5c97ec338cd31fa6"},
    {1020, "075652575ee70bd9"},
    {1021, "fce75d25339636d7"},
    {1022, "6714e1d561fe4619"},
    {1023, "0cd706654adcb8d4"},
    {1024, "7a4c5e8a95d5af38"},
    {1025, "2d24cc4c9b317bcd"},
    {1026, "e4451eb5ccc9bd07"},
    {1027, "6b6279eb6f6ea5f2"},
    {1028, "f92d60ced6f4d445"},
    {1029, "13d58227d5aa64eb"},
    {1030, "63c576adb56d753c"},
    {1031, "13ddd6a03afdc3c0"},
    {1032, "3c208d354654daf8"},
    {1033, "0522b99f0ac6f80f"},
    {1034, "df1f61687183e06b"},
    {1035, "adfc454707e620c2"},
    {1036, "b066269ce4070bfb"},
    {1037, "a17dd0fe35e0c272"},
    {1038, "ce130b92f643d138"},
    {1039, "45ea429e1db49bcf"},
    {1040, "41ba2711a23c0a0e"},
    {1041, "d81b34b48d91a9de"},
    {1042, "dbc9638196390b53"},
    {1043, "567ac6a024f6315e"},
    {1044, "f2fda1bb242626b8"},
    {1045, "50a8eeeb7e58c7d1"},
    {1046, "477411243b3c1b03"},
    {1047, "e2fe7df63bbddac7"},
    {1048, "4653eb0ac5857961"},
    {1049, "1253d2674dfc8b78"},
    {1050, "40ded77f14c8f8d7"},
    {1051, "4e6a7a0685e23716"},
    {1052, "c216d3403ab412ca"},
    {1053, "ce045f2b1c10ac29"},
    {1054, "a937a68154aabc5e"},
    {1055, "967af84aa00f5687"},
    {1056, "47933f62e48e58cd"},
    {1057, "05db3a8617412357"},
    {1058, "2e135e2b5189c7ac"},
    {1059, "1987cc7adb325e7b"},
    {1060, "41f49e7d83428811"},
    {1061, "e2c8c10df0e6bb0e"},
    {1062, "7fd48a074a4c304d"},
    {1063, "5c04aed9aa51357c"},
};

struct ExhaustiveWalk {
  std::int64_t runs;            // schedules explored
  const char* max_termination;  // worst termination time, exact
};

// One entry per walk of make_walks() in exhaustive_walks.cpp, in order.
inline constexpr ExhaustiveWalk kExhaustive[] = {
    {256, "8"},  // semisync-steps n=2 s=2 c2=2
    {1024, "15"},  // semisync-steps n=2 s=2 c2=3
    {4096, "24"},  // semisync-steps n=2 s=2 c2=4
    {16384, "14"},  // semisync-steps n=2 s=3 c2=2
    {4096, "8"},  // semisync-steps n=3 s=2 c2=2
    {12864, "6"},  // semisync-comm n=2 s=2 d2=2
    {120, "12"},  // sporadic n=2 s=2 d2=2
    {200, "13"},  // sporadic n=2 s=2 d2=3
    {1225, "12"},  // sporadic n=2 s=2 gaps=1,3,5
    {2108, "12"},  // sporadic n=3 s=2 d2=2
    {8100, "21"},  // sporadic n=2 s=3 d2=3
    {12864, "6"},  // async n=2 s=2 c2=2 d2=2
    {1426, "6"},  // async n=3 s=2 c2=2 d2=2
};

}  // namespace perfbench::expected
