// The spec strings the project documents and runs: the `--faults` and
// `--requests` examples of the README, `eclb_cli --help`, the bench sources
// and tools/CMakeLists.txt, plus one spec per grammar feature the examples
// leave out.  The pinned to_spec() test and the mutation fuzzer both start
// from this corpus; a spec that ever crashed the reader belongs here too.
#pragma once

#include <string_view>

namespace eclb::test {

inline constexpr std::string_view kFaultCorpus[] = {
    // README and --help.
    "crash@600:s=3;recover@1800:s=3;loss@0:p=0.05;seed=9",
    "crash@600:s=5;recover@1800:s=5",
    "leader@1200;crash@600:s=5;recover@1800:s=5;loss@0:p=0.05;seed=9",
    "leader@1200;loss@0:p=0.05;crash@600:s=3;seed=9",
    "part@600:g=0-49|50-99,heal=1800",
    // tools/CMakeLists.txt.
    "part@120:g=0-9|10-19,heal=400",
    "leader@1200;loss@0:p=0.05;crash@600:s=3;migfail@0:p=0.1;"
    "part@600:g=0-49|50-199,heal=1800;seed=9",
    "leader@1200;loss@0:p=0.05;crash@600:s=3;migfail@0:p=0.1;"
    "part@600:g=0-24|25-49,heal=1800;seed=9",
    // The end-to-end benchmark's per-shard plan.
    "leader@1200;crash@600:s=3;crash@900:s=701;recover@2400:s=3;"
    "loss@0:p=0.05;migfail@0:p=0.1;part@1800:g=0-799|800-999,heal=2400",
    // Grammar coverage: every kind and parameter, blanks, members.
    "seed=1234; hb=3; miss=2; retries=6; backoff=0.25; cap=4;"
    "delay@10:d=0.2; derate@20:s=7,c=0.5; part@10:g=0+2-3|1+4; heal@50",
    "part@100:g=0-4+5-9|12+10-11,heal=300; loss@1e3:p=1",
};

inline constexpr std::string_view kRequestCorpus[] = {
    // README and --help.
    "poisson:rate=200,mean=0.2;flash:rate=50,burst=8;seed=7",
    "poisson:rate=120,mean=0.2,sla=90;flash:rate=30,burst=8;seed=7",
    "flash:rate=250,burst=8,on=120,off=480,mean=0.2,sla=30;seed=9",
    "trace:file=FILE",
    // tools/CMakeLists.txt.
    "poisson:rate=40,mean=0.2;seed=7",
    "diurnal:rate=60,amp=0.5",
    "flash:rate=50,burst=10;seed=11",
    "poisson:rate=40",
    "poisson:rate=400;flash:rate=100,burst=8;seed=7",
    "poisson:rate=800;flash:rate=200,burst=8;seed=7",
    // Bench sources (x13, x14, perf_kernel) and the end-to-end benchmark.
    "poisson:rate=48.0,mean=0.2,sla=90;seed=5;util=0.7",
    "diurnal:rate=48.0,amp=0.7,period=1200,mean=0.2,sla=90;seed=5;util=0.7",
    "flash:rate=48.0,burst=6,on=120,off=600,mean=0.2,sigma=1.2,sla=90;"
    "seed=5;util=0.7",
    "flash:rate=100.0,burst=8,on=120,off=480,mean=0.2,sigma=1.2,sla=30;"
    "seed=9;util=0.7;admit=tail-drop;cap=48;drain=2",
    "flash:rate=100.0,burst=8,on=120,off=480,mean=0.2,sigma=1.2,sla=30;"
    "seed=9;util=0.7;admit=deadline-shed;cap=48;drain=0",
    "poisson:rate=400,mean=0.2;diurnal:rate=300,amp=0.6,period=3600;"
    "flash:rate=200,burst=6,on=120,off=600;seed=17",
    "flash:rate=20,burst=10,on=60,off=300,mean=0.2,sla=30;seed=9;util=0.7",
    "poisson:rate=2000;flash:rate=500,burst=8",
    // Grammar coverage: service laws, the global SLA, admission knobs at
    // their limits, the shortest flash means and the largest burst.
    "poisson:rate=200,mean=0.1,service=pareto,alpha=2.2;"
    "flash:rate=40,burst=6,on=90,off=700,sla=30;seed=11;util=0.5;sla=2",
    "diurnal:rate=80,amp=0.4,period=7200;trace:file=/tmp/x.trs,scale=2;"
    "seed=3;util=0.6",
    "poisson:rate=5,service=lognormal,sigma=0.5;admit=tail-drop;"
    "cap=4294967295;drain=4294967295",
    "poisson:rate=5, service=exp ; admit=deadline-shed; budget=2.5",
    "flash:rate=5,on=0.001,off=0.001,burst=1000",
};

/// `eclb_cli` and bench command lines (README, --help, tools/CMakeLists.txt)
/// for the Flags fuzzer, split on spaces.
inline constexpr std::string_view kFlagCorpus[] = {
    "cluster --servers 1000 --load 30 --intervals 40 --seed 7",
    "cluster --servers 200 --load 70 --seed 7 --intervals 40 --shards 4 "
    "--fabric-threads 0",
    "cluster --servers 50 --intervals 1 --admission tail-drop "
    "--admission-cap 4294967295 --drain-intervals 4294967295",
    "cluster --tau 0.5 --no-sleep --no-rebalance --metrics=out.json",
    "farm --policy autoscale --workload spiky --servers 100 --hours 1",
    "migrate --ram 4096 --dirty 200 --bandwidth 1000 --image 0",
    "model --a-avg 0.3 --b-avg 0.6 --a-opt 0.9 --b-opt 0.8 --n 100",
    "x5 --tiny --threads 2 --threshold -5 --delta -0.25 --eps -1e-3",
};

}  // namespace eclb::test
