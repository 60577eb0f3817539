// serve_mix: a warm `accmos serve` daemon (two request workers) driven
// closed-loop by two client connections — callers that wait for each
// reply. About nine in ten requests are small `run`s with a fresh seed,
// the rest `campaign`s of a few hundred seeds with large responses, over
// three models the pool holds entirely (no eviction).
//
// Untraced: setup is a daemon started on an empty compile cache until each
// model has answered once, three daemons side by side; the first one then
// serves the timed mix. Traced: the same request against a local warm
// evaluator, the codecs on the same payloads, and the mix with a span
// around every request.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <thread>

#include "bench_models/suite.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace accbench {
namespace {

using namespace accmos;

constexpr const char* kModels[] = {"CSEV", "SPV", "LEDLC"};
constexpr size_t kNumModels = std::size(kModels);
constexpr uint64_t kSteps = 1000;
constexpr size_t kCampaignSeeds = 256;
constexpr uint64_t kCampaignOneIn = 10;
constexpr int kDaemonReps = 3;
constexpr size_t kClients = 2;
constexpr size_t kLocalReps = 300;
constexpr int kCodecReps = 10;
// Every n-th answer of each kind is kept and checked against local runs.
constexpr size_t kCheckRunEvery = 40;
constexpr size_t kCheckCampaignEvery = 5;

struct Daemon {
  pid_t pid = -1;
  std::string socket;
  double setupSeconds = 0.0;
};

struct Mix {
  std::vector<std::string> xml;
  std::vector<TestCaseSpec> stim;
  SimOptions opt = accmosOptions(kSteps);
};

std::unique_ptr<serve::ServeClient> connect(const std::string& socket,
                                            pid_t pid) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      return std::make_unique<serve::ServeClient>(socket);
    } catch (const serve::ProtocolError&) {
      if (since(t0) > 60.0 || exited(pid)) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Starts a daemon on `cacheDir` and waits until every model has answered
// one run: the daemon then holds the whole mix in its pool.
Daemon startWarm(const Options& o, const Mix& mix, int index,
                 const std::string& cacheDir, Trace& tr) {
  Daemon d;
  d.socket = "d";
  d.socket += std::to_string(index);
  d.socket += ".sock";
  const auto t0 = Clock::now();
  std::unique_ptr<serve::ServeClient> client = tr.span("serve.spawn", [&] {
    d.pid = spawn({o.cli, "serve", "--socket=" + d.socket,
                   "--request-workers=2"},
                  {"ACCMOS_CACHE_DIR=" + cacheDir},
                  o.workDir + "/" + d.socket + ".log");
    return connect(d.socket, d.pid);
  });
  tr.span("serve.warmup", [&] {
    for (size_t m = 0; m < kNumModels; ++m) {
      SimulationResult r = client->run(mix.xml[m], mix.opt, mix.stim[m]);
      if (r.failed) throw ModelError(std::string("warm-up run of ") +
                                     kModels[m] + " failed");
    }
  });
  d.setupSeconds = since(t0);
  return d;
}

int stop(const Daemon& d) {
  try {
    serve::ServeClient(d.socket).shutdown();
  } catch (const std::exception&) {
    ::kill(d.pid, SIGTERM);
  }
  return waitChild(d.pid, 30.0);
}

struct Kept {
  size_t model;
  std::vector<TestCaseSpec> specs;  // one spec for a run
  std::string answer;
};

struct Latencies {
  std::vector<double> runMs;
  std::vector<double> campaignMs;
  std::vector<Kept> kept;
  serve::ServiceMeta meta;
  uint64_t requests = 0;
};

// One closed-loop client until `seconds` have passed.
void client(const std::string& socket, const Mix& mix, uint64_t seed,
            double seconds, Report& rep, Trace& tr, Latencies& out) {
  serve::ServeClient c(socket);
  Rng rng(seed);
  const auto t0 = Clock::now();
  // Every tenth request is a campaign: a fixed share, so that the time a
  // run spends on campaigns does not depend on the seed.
  for (uint64_t k = 1; since(t0) < seconds; ++k) {
    const size_t m = rng.next() % kNumModels;
    const bool campaign = k % kCampaignOneIn == 0;
    std::vector<TestCaseSpec> specs(campaign ? kCampaignSeeds : 1,
                                    mix.stim[m]);
    for (auto& s : specs) s.seed = rng.next();
    ++out.requests;
    try {
      const auto t = Clock::now();
      if (campaign) {
        CampaignResult cr = tr.span("serve.campaign", [&] {
          return c.campaign(mix.xml[m], mix.opt, specs, &out.meta);
        });
        out.campaignMs.push_back(since(t) * 1e3);
        const bool ok =
            cr.failures.empty() && cr.perSeed.size() == kCampaignSeeds;
        rep.op(ok, "campaign request lost seeds");
        if (out.campaignMs.size() % kCheckCampaignEvery == 1) {
          out.kept.push_back({m, specs, observations(cr)});
        }
      } else {
        SimulationResult r = tr.span("serve.run", [&] {
          return c.run(mix.xml[m], mix.opt, specs[0], &out.meta);
        });
        out.runMs.push_back(since(t) * 1e3);
        rep.op(!r.failed, "run request failed");
        if (out.runMs.size() % kCheckRunEvery == 1) {
          out.kept.push_back({m, specs, observations(r)});
        }
      }
    } catch (const std::exception& e) {
      rep.op(false, std::string("request threw: ") + e.what());
    }
  }
}

// The timed mix: kClients closed-loop clients on one daemon.
std::vector<Latencies> runMix(const Daemon& d, const Mix& mix, Rng& rng,
                              double seconds, Report& rep, Trace& tr,
                              double* elapsed) {
  std::vector<Latencies> lat(kClients);
  std::vector<uint64_t> seeds(kClients);
  for (auto& s : seeds) s = rng.next();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      client(d.socket, mix, seeds[c], seconds, rep, tr, lat[c]);
    });
  }
  for (auto& t : threads) t.join();
  *elapsed = since(t0);
  return lat;
}

// Kept answers against local execution of the same requests.
void checkAgainstLocal(const Mix& mix, const std::vector<Latencies>& lat,
                       Report& rep) {
  Trace off(false);
  for (size_t m = 0; m < kNumModels; ++m) {
    auto p = prepare(mix.xml[m], mix.opt, off);
    SpecEvaluator ev(p->optimized, mix.opt);
    for (const auto& l : lat) {
      for (const Kept& k : l.kept) {
        if (k.model != m) continue;
        const std::string local =
            k.specs.size() == 1
                ? observations(ev.evaluate(k.specs)[0])
                : observations(runCampaignSpecsOn(p->optimized, ev, mix.opt,
                                                  k.specs, p->optStats));
        rep.op(local == k.answer, std::string("daemon answer for ") +
                                      kModels[m] + " differs from local");
      }
    }
  }
}

uint64_t compilerInvocations(const Daemon& d) {
  serve::ServeClient c(d.socket);
  return c.stats().at("compilerInvocations", "$").asU64("$");
}

void untraced(const Options& o, Report& rep, Trace& tr, const Mix& mix,
              Rng& rng) {
  std::vector<Daemon> daemons(kDaemonReps);
  std::vector<std::thread> starters;
  for (int r = 0; r < kDaemonReps; ++r) {
    const std::string cache =
        r == 0 ? o.workDir + "/cache" : o.workDir + "/cache" + std::to_string(r);
    makeDirs(cache);
    starters.emplace_back([&, r, cache] {
      try {
        daemons[static_cast<size_t>(r)] = startWarm(o, mix, r, cache, tr);
      } catch (const std::exception& e) {
        rep.op(false, std::string("daemon start: ") + e.what());
      }
    });
  }
  for (auto& t : starters) t.join();
  for (int r = 0; r < kDaemonReps; ++r) {
    const Daemon& d = daemons[static_cast<size_t>(r)];
    rep.op(d.pid > 0, "daemon " + std::to_string(r) + " did not start");
    if (d.pid <= 0) continue;
    rep.sample("setup_s", "s", d.setupSeconds);
    if (r > 0) rep.op(stop(d) == 0, "daemon did not shut down cleanly");
  }
  const Daemon& d = daemons[0];
  if (d.pid <= 0) throw ModelError("no daemon to measure");

  const uint64_t inv0 = compilerInvocations(d);
  double elapsed = 0.0;
  std::vector<Latencies> lat = runMix(d, mix, rng, o.seconds, rep, tr, &elapsed);
  rep.op(compilerInvocations(d) == inv0,
         "the warm daemon invoked the compiler during the mix");
  rep.value("peak_rss_mb", "MB", peakRssMb(d.pid));
  rep.op(stop(d) == 0, "daemon did not shut down cleanly");

  uint64_t requests = 0;
  for (const auto& l : lat) {
    requests += l.requests;
    for (double v : l.runMs) {
      rep.sample("op_ms", "ms", v);
      rep.tail("serve.run_tail_ms", "ms", v);
    }
    for (double v : l.campaignMs) {
      rep.sample("serve.campaign_p50_ms", "ms", v);
      rep.tail("serve.campaign_tail_ms", "ms", v);
    }
  }
  rep.value("ops_per_s", "1/s", static_cast<double>(requests) / elapsed);
  checkAgainstLocal(mix, lat, rep);
}

void traced(const Options& o, Report& rep, Trace& tr, const Mix& mix,
            Rng& rng) {
  const auto wall0 = Clock::now();
  Daemon d = startWarm(o, mix, 0, o.workDir + "/cache", tr);
  const uint64_t inv0 = compilerInvocations(d);
  serve::ServeClient c(d.socket);

  // One run request on the wire against the same request run locally.
  auto p = tr.span("serve.local_prepare",
                   [&] { return prepare(mix.xml[0], mix.opt, tr); });
  SpecEvaluator ev(p->optimized, mix.opt);
  ev.evaluate({mix.stim[0]});
  std::vector<double> localUs, rttUs;
  TestCaseSpec spec = mix.stim[0];
  for (size_t k = 0; k < kLocalReps; ++k) {
    spec.seed = rng.next();
    auto t = Clock::now();
    tr.span("serve.local_run", [&] { ev.evaluate({spec}); });
    localUs.push_back(since(t) * 1e6);
    t = Clock::now();
    tr.span("serve.rtt_run", [&] { c.run(mix.xml[0], mix.opt, spec); });
    rttUs.push_back(since(t) * 1e6);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  rep.value("serve.local_us", "us", median(localUs));
  rep.value("serve.overhead_us", "us", median(rttUs) - median(localUs));

  // The codecs on one campaign response.
  std::vector<TestCaseSpec> specs(kCampaignSeeds, mix.stim[0]);
  for (auto& s : specs) s.seed = rng.next();
  CampaignResult cr = runCampaignSpecsOn(p->optimized, ev, mix.opt, specs,
                                         p->optStats);
  size_t bytes = 0;
  auto t = Clock::now();
  tr.span("serve.codec", [&] {
    for (int k = 0; k < kCodecReps; ++k) {
      const std::string text = serve::toJson(cr).write();
      bytes = text.size();
      serve::campaignResultFromJson(serve::parseJson(text), "$");
    }
  });
  rep.value("serve.codec_us", "us", since(t) * 1e6 / kCodecReps);
  rep.value("serve.response_kb", "KB", static_cast<double>(bytes) / 1024.0);

  // The mix, every request in a span.
  double elapsed = 0.0;
  std::vector<Latencies> lat = tr.span("serve.mix", [&] {
    return runMix(d, mix, rng, o.seconds / 2, rep, tr, &elapsed);
  });
  for (const auto& l : lat) {
    for (double v : l.runMs) rep.tail("serve.run_tail_ms", "ms", v);
    for (double v : l.campaignMs) {
      rep.sample("serve.campaign_p50_ms", "ms", v);
      rep.tail("serve.campaign_tail_ms", "ms", v);
    }
  }
  const serve::PoolStats& pool = lat[0].meta.pool;
  rep.value("serve.pool_hit_ratio", "ratio",
            static_cast<double>(pool.hits) /
                static_cast<double>(std::max<uint64_t>(pool.hits + pool.misses, 1)));
  serve::Json stats = c.stats();
  const serve::Json& sched = stats.at("scheduler", "$");
  rep.value("serve.sched_executed", "count",
            static_cast<double>(sched.at("executed", "$").asU64("$")));
  rep.value("serve.sched_peak_in_flight", "count",
            static_cast<double>(sched.at("peakInFlight", "$").asU64("$")));
  rep.value("codegen.compiler_invocations", "count",
            static_cast<double>(
                stats.at("compilerInvocations", "$").asU64("$") - inv0));
  tr.span("check.local", [&] { checkAgainstLocal(mix, lat, rep); });
  rep.value("trace.unaccounted_s", "s", since(wall0) - tr.topLevelSeconds());

  // Span cost: the same run requests again, untraced.
  double untracedUs = 0.0;
  for (size_t k = 0; k < kLocalReps; ++k) {
    spec.seed = rng.next();
    t = Clock::now();
    c.run(mix.xml[0], mix.opt, spec);
    untracedUs += since(t) * 1e6;
  }
  double tracedUs = 0.0;
  for (double v : rttUs) tracedUs += v;
  rep.value("trace.overhead_s", "s", (tracedUs - untracedUs) * 1e-6);
  rep.op(stop(d) == 0, "daemon did not shut down cleanly");
}

}  // namespace

void runServeMix(const Options& o, Report& rep, Trace& tr) {
  Mix mix;
  for (const char* m : kModels) {
    mix.xml.push_back(benchModelXml(m));
    mix.stim.push_back(benchStimulus(m));
  }
  Rng rng(o.seed);
  rep.info("mix", "CSEV SPV LEDLC; 1 in 10 a campaign of 256 seeds; " +
                      std::to_string(kSteps) + " steps; 2 clients");
  if (tr.on()) {
    traced(o, rep, tr, mix, rng);
  } else {
    untraced(o, rep, tr, mix, rng);
  }
}

}  // namespace accbench
