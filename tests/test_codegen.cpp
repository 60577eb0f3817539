// End-to-end tests of the AccMoS pipeline: instrumentation, code synthesis,
// compilation, execution, and parity of the recovered results with the
// interpreting engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/emitter.h"
#include "codegen/model_lib.h"
#include "codegen/result_frame.h"
#include "codegen/runtime_preamble.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// A small model exercising arithmetic, branching, logic, state and I/O.
Tiny mixedModel() {
  Tiny t("Mixed");
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.5);
  t.actor("Add", "Sum").params().set("ops", "+-");
  Actor& cmp = t.actor("Cmp", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  Actor& logic = t.actor("L", "LogicalOperator");
  logic.params().set("op", "AND");
  logic.params().setInt("inputs", 2);
  Actor& cmp2 = t.actor("Cmp2", "CompareToConstant");
  cmp2.params().set("op", "<");
  cmp2.params().setDouble("value", 0.8);
  Actor& sw = t.actor("Sw", "Switch");
  sw.params().set("criteria", "~=0");
  t.actor("Del", "UnitDelay");
  t.outport("Out1", 1);
  t.outport("Out2", 2);

  t.wire("In1", "G");
  t.wire("G", "Add", 1);
  t.wire("In2", "Add", 2);
  t.wire("In1", "Cmp");
  t.wire("In2", "Cmp2");
  t.wire("Cmp", "L", 1);
  t.wire("Cmp2", "L", 2);
  t.wire("Add", "Sw", 1);
  t.wire("L", "Sw", 2);
  t.wire("In2", "Sw", 3);
  t.wire("Sw", "Del");
  t.wire("Del", "Out1");
  t.wire("Add", "Out2");
  return t;
}

TEST(Codegen, GeneratedSourceHasPaperStructure) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 10;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  // The three structural pieces of paper Fig. 5. The paper's main() is
  // the library entry point accmos_run: the model compiles to one shared
  // library that both execution backends load, never to a program.
  EXPECT_NE(src.find("Model_Init"), std::string::npos);
  EXPECT_NE(src.find("Model_Exe"), std::string::npos);
  EXPECT_NE(src.find("int accmos_run("), std::string::npos);
  EXPECT_EQ(src.find("int main"), std::string::npos);
  // Instrumentation: coverage bitmap writes and a generated diagnostic
  // function ("implementation defined elsewhere, call at a location").
  EXPECT_NE(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_NE(src.find("diagnose_"), std::string::npos);
  // Test-case import.
  EXPECT_NE(src.find("accmos_fill_inputs"), std::string::npos);
}

// The runtime core has one definition: every generated source carries the
// exact text of src/ir/arith_core.h once, and the runtime preamble defines
// none of its functions.
TEST(Codegen, EmbedsTheRuntimeCoreVerbatimOnce) {
  std::ifstream in(std::string(ACCMOS_MODELS_DIR) + "/../src/ir/arith_core.h",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string core((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_NE(core.find("accmos_fold"), std::string::npos);
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  const std::string src =
      AccMoSEngine::generate(sim.flatModel(), opt, TestCaseSpec{}).source;
  const size_t at = src.find(core);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(src.find(core, at + 1), std::string::npos);

  // Each name the core declares ("static inline <type> accmos_x(" and its
  // result struct) appears nowhere in the preamble.
  const std::string preamble(runtimePreamble());
  std::vector<std::string> names = {"accmos_res"};
  for (size_t p = core.find("static inline "); p != std::string::npos;
       p = core.find("static inline ", p + 1)) {
    const size_t open = core.find('(', p);
    const size_t name = core.rfind(' ', open) + 1;
    names.push_back(core.substr(name, open - name));
  }
  EXPECT_GE(names.size(), 12u);
  for (const std::string& n : names) {
    EXPECT_EQ(n.rfind("accmos_", 0), 0u) << n;
    EXPECT_EQ(preamble.find(n), std::string::npos) << n;
  }
}

// ---- Header-free generated code --------------------------------------------
//
// Generated code parses no C++ standard header: the preamble includes
// <stdint.h> and <time.h> and declares the C functions emitted code calls.

std::string sourceFor(const Model& model, const SimOptions& opt) {
  Simulator sim(model);
  return AccMoSEngine::generate(sim.flatModel(), opt, TestCaseSpec{}).source;
}

// The distinct `#include` lines of `src`, sorted.
std::vector<std::string> includeLines(const std::string& src) {
  std::vector<std::string> lines;
  std::istringstream in(src);
  for (std::string l; std::getline(in, l);) {
    if (l.rfind("#include", 0) == 0) lines.push_back(l);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

TEST(HeaderFree, InstrumentedModelIncludesTwoCHeaders) {
  test::EnvGuard fault("ACCMOS_FAULT", nullptr);
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.collectList = {"Mixed_Add"};
  opt.customDiagnostics = {suddenChangeDiagnostic("Mixed_Sw", "jump", 0.4)};
  const std::string src = sourceFor(t.model(), opt);
  ASSERT_NE(src.find("accmos_cov_actor["), std::string::npos);
  ASSERT_NE(src.find("diagnose_"), std::string::npos);
  EXPECT_EQ(includeLines(src),
            (std::vector<std::string>{"#include <stdint.h>",
                                      "#include <time.h>"}));
}

TEST(HeaderFree, SignalHeaderOnlyWhenACrashIsArmed) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  {
    test::EnvGuard fault("ACCMOS_FAULT", nullptr);
    EXPECT_EQ(sourceFor(t.model(), opt).find("<signal.h>"),
              std::string::npos);
  }
  test::EnvGuard fault("ACCMOS_FAULT", "crash@5");
  const std::string src = sourceFor(t.model(), opt);
  EXPECT_NE(src.find("#include <signal.h>\n"), std::string::npos);
  EXPECT_NE(src.find("raise(SIGSEGV)"), std::string::npos);
}

// A cppCondition may use <cmath> names: the emitter includes <cmath> for
// it, and the snippet reports what the same SuddenChange check reports on
// SSE.
TEST(HeaderFree, CppConditionUsesCmath) {
  test::EnvGuard fault("ACCMOS_FAULT", nullptr);
  Tiny t = mixedModel();
  TestCaseSpec tests;
  tests.seed = 5;
  tests.defaultPort.min = -2.0;
  tests.defaultPort.max = 2.0;
  SimOptions opt;
  opt.maxSteps = 300;
  opt.engine = Engine::SSE;
  opt.customDiagnostics = {suddenChangeDiagnostic("Mixed_Sw", "jump", 1.0)};
  const SimulationResult sse = simulate(t.model(), opt, tests);

  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Sw";
  cd.name = "jump";
  cd.kind = CustomDiagnostic::Kind::Expression;
  cd.cppCondition = "step > 0 && std::fabs(cur - prev) > 1.0";
  opt.engine = Engine::AccMoS;
  opt.customDiagnostics = {cd};
  EXPECT_EQ(includeLines(sourceFor(t.model(), opt)),
            (std::vector<std::string>{"#include <cmath>",
                                      "#include <stdint.h>",
                                      "#include <time.h>"}));
  const SimulationResult acc = simulate(t.model(), opt, tests);

  const DiagRecord* sseCd = sse.findDiag("Mixed_Sw", DiagKind::Custom);
  const DiagRecord* accCd = acc.findDiag("Mixed_Sw", DiagKind::Custom);
  ASSERT_NE(sseCd, nullptr);
  ASSERT_NE(accCd, nullptr);
  EXPECT_GT(sseCd->count, 0u);
  EXPECT_EQ(sseCd->firstStep, accCd->firstStep);
  EXPECT_EQ(sseCd->count, accCd->count);
  test::expectSameOutputs(sse, acc, "cppCondition");
}

// A width-1 actor's element code is a block, and a wider one's a loop.
TEST(HeaderFree, WidthOneActorsEmitNoLoop) {
  for (int width : {1, 3}) {
    Tiny t("W");
    t.inport("In1", 1).setWidth(width);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 0.5);
    g.setWidth(width);
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "Out1");
    SimOptions opt;
    opt.engine = Engine::AccMoS;
    const std::string src = sourceFor(t.model(), opt);
    const size_t at = src.find("// -- W_G (Gain)");
    ASSERT_NE(at, std::string::npos);
    const std::string body = src.substr(at, src.find("// --", at + 1) - at);
    EXPECT_EQ(body.find("for (") != std::string::npos, width > 1) << body;
    EXPECT_EQ(body.find("{ const int i = 0;") != std::string::npos,
              width == 1)
        << body;
  }
}

// Coverage bitmaps are bool: a store through uint8_t, a char type, may
// alias every member of the model state.
TEST(HeaderFree, CoverageBitmapsAreBool) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  const std::string src = sourceFor(t.model(), opt);
  for (const char* map : {"accmos_cov_actor", "accmos_cov_cond",
                          "accmos_cov_dec", "accmos_cov_mcdc"}) {
    EXPECT_NE(src.find(std::string("  bool ") + map + "["), std::string::npos)
        << map;
  }
  EXPECT_EQ(src.find("uint8_t accmos_cov_"), std::string::npos);
}

// ---- Lean step code ---------------------------------------------------------
//
// An actor that no enable guards runs in every step, so its actor-coverage
// mark is written once, after the step loop; a gated actor marks inside its
// guard. The diagnostic recorder is one out-of-line, cold function.

// The text of Model_Exe in `src`.
std::string modelExeText(const std::string& src) {
  const size_t at = src.find("void Model_Exe(");
  if (at == std::string::npos) return "";
  return src.substr(at, src.find("\n}\n", at) - at);
}

// An enabled subsystem In1 -> G1 -> Out1 beside an ungated root Gain.
Tiny gatedGainModel() {
  Tiny t("Gated");
  t.inport("In1", 1);
  t.inport("En", 2);
  Actor& cmp = t.actor("C", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  System& inner = t.actor("S", "EnabledSubsystem").makeSubsystem();
  inner.addActor("In1", "Inport").params().setInt("port", 1);
  inner.addActor("G1", "Gain").params().setDouble("gain", 2.0);
  inner.addActor("Out1", "Outport").params().setInt("port", 1);
  inner.connect("In1", 1, "G1", 1);
  inner.connect("G1", 1, "Out1", 1);
  t.actor("G", "Gain").params().setDouble("gain", 3.0);
  t.outport("Out1", 1);
  t.outport("Out2", 2);
  t.wire("En", "C");
  t.wire("In1", "S", 1);
  t.wire("C", "S", 2);
  t.wire("S", "Out1");
  t.wire("In1", "G");
  t.wire("G", "Out2");
  return t;
}

TEST(LeanStep, UngatedActorsMarkCoverageAfterTheLoop) {
  Tiny ungated = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  std::string src = sourceFor(ungated.model(), opt);
  std::string exe = modelExeText(src);
  ASSERT_FALSE(exe.empty());
  EXPECT_EQ(exe.find("accmos_cov_actor["), std::string::npos) << exe;
  const size_t loopEnd = src.find("if (step > 0) {");
  ASSERT_NE(loopEnd, std::string::npos);
  EXPECT_NE(src.find("accmos_cov_actor[slots[k]] = 1;", loopEnd),
            std::string::npos);

  Tiny gated = gatedGainModel();
  src = sourceFor(gated.model(), opt);
  exe = modelExeText(src);
  const size_t g1 = exe.find("// -- Gated_S_G1 (Gain)");
  ASSERT_NE(g1, std::string::npos) << exe;
  const std::string block = exe.substr(g1, exe.find("// --", g1 + 1) - g1);
  const size_t guard = block.find("if (s");
  ASSERT_NE(guard, std::string::npos) << block;
  EXPECT_GT(block.find("accmos_cov_actor["), guard) << block;
  const size_t g = exe.find("// -- Gated_G (Gain)");
  ASSERT_NE(g, std::string::npos) << exe;
  const std::string root = exe.substr(g, exe.find("// --", g + 1) - g);
  EXPECT_EQ(root.find("accmos_cov_actor["), std::string::npos) << root;
}

TEST(LeanStep, DiagnosticRecorderIsOutOfLineAndCold) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  const std::string src = sourceFor(t.model(), opt);
  ASSERT_NE(src.find("diagnose_"), std::string::npos);
  EXPECT_NE(src.find("  __attribute__((noinline, cold))\n"
                     "  void accmos_diag(int actor, int kind, uint64_t step)"),
            std::string::npos);
}

// The stimulus is run data: the emitted source, and so the compiled
// library, is one per model whatever the test case — other range bounds, a
// -0.0 bound, a sequence port or another seed.
TEST(Codegen, SourceDoesNotDependOnTheTestCase) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  TestCaseSpec a;
  a.ports = {PortStimulus{0.0, 1.0, {}}, PortStimulus{-2.0, 2.0, {}}};
  const std::string source =
      AccMoSEngine::generate(sim.flatModel(), opt, a).source;

  TestCaseSpec range = a;
  range.ports[1] = PortStimulus{-5.0, 7.5, {}};
  TestCaseSpec negZero = a;
  negZero.ports[0].min = -0.0;
  TestCaseSpec sequence = a;
  sequence.ports[1].sequence = {0.25, -1.0, 3.0};
  TestCaseSpec seed = a;
  seed.seed = 99;
  const std::pair<const char*, TestCaseSpec> others[] = {
      {"range", range},
      {"-0.0 bound", negZero},
      {"sequence", sequence},
      {"seed", seed}};
  for (const auto& [label, b] : others) {
    EXPECT_TRUE(AccMoSEngine::generate(sim.flatModel(), opt, b).source ==
                source)
        << label;
  }
}

TEST(Codegen, MatchesInterpreterOnMixedModel) {
  Tiny t = mixedModel();
  auto sse = test::runOn(t.model(), Engine::SSE, 500);
  auto acc = test::runOn(t.model(), Engine::AccMoS, 500);
  EXPECT_EQ(acc.stepsExecuted, 500u);
  test::expectSameOutputs(sse, acc, "AccMoS vs SSE");
  // Identical coverage percentages (same plans, same bitmaps).
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
        << covMetricName(m);
    EXPECT_EQ(sse.coverage.of(m).total, acc.coverage.of(m).total);
  }
  // Identical diagnostics.
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

TEST(Codegen, DetectsSampleModelOverflowLikeInterpreter) {
  auto model = sampleOverflowModel();
  SimOptions opt;
  opt.maxSteps = 50000;
  opt.stopOnDiagnostic = true;
  TestCaseSpec tests = sampleOverflowStimulus();
  // Scale up so the overflow happens within the step budget.
  tests.ports[0].max = 200000.0;
  tests.ports[1].max = 200000.0;

  opt.engine = Engine::SSE;
  auto sse = simulate(*model, opt, tests);
  opt.engine = Engine::AccMoS;
  auto acc = simulate(*model, opt, tests);

  ASSERT_TRUE(sse.firstDiagStep().has_value());
  ASSERT_TRUE(acc.firstDiagStep().has_value());
  EXPECT_EQ(*sse.firstDiagStep(), *acc.firstDiagStep());
  EXPECT_TRUE(sse.stoppedEarly);
  EXPECT_TRUE(acc.stoppedEarly);
  EXPECT_NE(acc.findDiag("Sample", DiagKind::WrapOnOverflow), nullptr);
}

TEST(Codegen, CollectAndCustomDiagnostics) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.maxSteps = 200;
  opt.collectList = {"Mixed_Add"};
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Sw";
  cd.name = "sudden-change";
  cd.kind = CustomDiagnostic::Kind::SuddenChange;
  cd.maxDelta = 0.4;
  opt.customDiagnostics = {cd};

  opt.engine = Engine::SSE;
  auto sse = simulate(t.model(), opt, TestCaseSpec{});
  opt.engine = Engine::AccMoS;
  auto acc = simulate(t.model(), opt, TestCaseSpec{});

  ASSERT_EQ(sse.collected.size(), acc.collected.size());
  ASSERT_FALSE(acc.collected.empty());
  for (size_t k = 0; k < sse.collected.size(); ++k) {
    EXPECT_EQ(sse.collected[k].path, acc.collected[k].path);
    EXPECT_EQ(sse.collected[k].count, acc.collected[k].count);
    EXPECT_EQ(sse.collected[k].last, acc.collected[k].last);
  }
  const DiagRecord* sseCd = sse.findDiag("Mixed_Sw", DiagKind::Custom);
  const DiagRecord* accCd = acc.findDiag("Mixed_Sw", DiagKind::Custom);
  ASSERT_NE(sseCd, nullptr);
  ASSERT_NE(accCd, nullptr);
  EXPECT_EQ(sseCd->firstStep, accCd->firstStep);
  EXPECT_EQ(sseCd->count, accCd->count);
}

TEST(Codegen, ExpressionCustomDiagnosticNeedsCppCondition) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Add";
  cd.name = "cb-only";
  cd.kind = CustomDiagnostic::Kind::Expression;
  cd.callback = [](double, double, uint64_t) { return false; };
  opt.customDiagnostics = {cd};
  EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);
}

TEST(Codegen, CompileErrorCarriesLog) {
  CompilerDriver driver;
  EXPECT_THROW(driver.compile("int main( {", "bad", "-O0"), CompileError);
}

TEST(Codegen, UninstrumentedCodeOmitsInstrumentation) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.coverage = false;
  opt.diagnosis = false;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  EXPECT_EQ(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_EQ(src.find("diagnose_"), std::string::npos);
  auto res = engine.run();
  EXPECT_FALSE(res.hasCoverage);
  EXPECT_TRUE(res.diagnostics.empty());
}

// ---- Step-private signals --------------------------------------------------
//
// Model_Exe keeps the signals private to one step in uninitialized local
// arrays. In an ordinary build, a local read before this step's write still
// sees the last step's value, from the stack slot that survives between
// calls or the register that carries it around the inlined step loop: the
// differentials cannot see a held output wrongly made local. Built with
// -ftrivial-auto-var-init=pattern at -O0, every Model_Exe call stores a
// poison pattern into its locals, so the same read sees the pattern. (At
// -O2, GCC inlines Model_Exe into the loop and, optimizing as if the
// locals were still uninitialized, hoists the pattern store out of it.)

// Compiles `source` with the compiler driver's compiler and library flags,
// at -O0 with every automatic variable pattern-initialized, into `dir`;
// returns the library's path.
std::string compilePatternInit(const std::string& source,
                               const std::string& dir) {
  const std::string src = dir + "/pattern.cpp";
  const std::string lib = dir + "/pattern.so";
  std::ofstream(src) << source;
  const std::string cmd = CompilerDriver::compilerPath() +
                          " -std=c++17 -O0 -shared -fPIC "
                          "-ftrivial-auto-var-init=pattern -o '" +
                          lib + "' '" + src + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  return lib;
}

// One accmos_run() of `tests` through `lib`, a model with `numPorts` root
// Inports, with the arguments the engine passes when no deadline or step
// budget is set; returns the result frame with the wall-clock execNs
// zeroed.
std::string runFrame(const ModelLib& lib, uint64_t steps,
                     const TestCaseSpec& tests, size_t numPorts) {
  RunBuffers buf(lib.info());
  const std::vector<AccmosPortStim> ports = portTable(tests, numPorts);
  AccmosRunArgs args;
  std::memset(&args, 0, sizeof(args));
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.maxSteps = steps;
  args.seed = tests.seed;
  args.ports = ports.data();
  args.numPorts = ports.size();
  EXPECT_EQ(lib.run(args, buf.res), ACCMOS_ABI_OK);
  buf.res.execNs = 0;
  return encodeResultFrame(buf);
}

// The engine's own library and a pattern-initialized build of the source
// it generated must write the same result frames.
void expectPatternInitMatches(const Model& model, const SimOptions& opt,
                              const TestCaseSpec& tests,
                              const std::string& label) {
  Simulator sim(model);
  const FlatModel fm = optimizeModel(sim.flatModel(), opt);
  AccMoSEngine engine(fm, opt, tests);
  CompilerDriver scratch;  // a private temp dir, removed with it
  // A private copy, as the engine loads (docs/EXECUTION.md).
  const std::string engineLib = scratch.dir() + "/engine.so";
  std::filesystem::copy_file(engine.exePath(), engineLib);
  ModelLib ref(engineLib);
  ModelLib pattern(
      compilePatternInit(engine.generatedSource(), scratch.dir()));
  for (uint64_t steps : {uint64_t{1}, uint64_t{3}, opt.maxSteps}) {
    const size_t numPorts = fm.rootInports.size();
    EXPECT_TRUE(runFrame(ref, steps, tests, numPorts) ==
                runFrame(pattern, steps, tests, numPorts))
        << label << ": result frames differ after " << steps << " steps";
  }
}

std::vector<std::string> shippedModels() {
  std::vector<std::string> names;
  namespace fs = std::filesystem;
  for (const auto& e : fs::directory_iterator(ACCMOS_MODELS_DIR)) {
    const fs::path& p = e.path();
    if (p.extension() == ".xml") names.push_back(p.stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

class PatternInitShipped : public ::testing::TestWithParam<std::string> {};

TEST_P(PatternInitShipped, MatchesEngineLibrary) {
  LoadedModel lm = loadModelFromFile(std::string(ACCMOS_MODELS_DIR) + "/" +
                                     GetParam() + ".xml");
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  expectPatternInitMatches(*lm.model, opt,
                           lm.stimulus.value_or(TestCaseSpec{}), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Models, PatternInitShipped, ::testing::ValuesIn(shippedModels()),
    [](const ::testing::TestParamInfo<std::string>& p) { return p.param; });

// On every shipped model, each actor-coverage slot is marked exactly once
// in the source: inside an enable guard in Model_Exe, or in the table the
// loop's end marks.
class LeanStepShipped : public ::testing::TestWithParam<std::string> {};

TEST_P(LeanStepShipped, EachActorSlotIsMarkedOnce) {
  LoadedModel lm = loadModelFromFile(std::string(ACCMOS_MODELS_DIR) + "/" +
                                     GetParam() + ".xml");
  Simulator sim(*lm.model);
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  const FlatModel fm = optimizeModel(sim.flatModel(), opt);
  const std::string src =
      AccMoSEngine::generate(fm, opt, TestCaseSpec{}).source;
  const std::string exe = modelExeText(src);
  ASSERT_FALSE(exe.empty());

  // Each actor's eval block: "  // -- path (type)\n  guard {\n...".
  std::vector<int> slots;
  for (size_t at = exe.find("  // -- "); at != std::string::npos;) {
    const size_t next = exe.find("  // -- ", at + 1);
    const std::string block = exe.substr(at, next - at);
    const std::string mark = "accmos_cov_actor[";
    const size_t store = block.find(mark);
    if (store != std::string::npos) {
      EXPECT_EQ(block.compare(block.find('\n') + 1, 7, "  if (s"), 0)
          << block;
      EXPECT_EQ(block.find(mark, store + 1), std::string::npos) << block;
      slots.push_back(std::stoi(block.substr(store + mark.size())));
    }
    at = next;
  }
  size_t gatedActors = 0;
  for (const FlatActor& fa : fm.actors) gatedActors += fa.enableSignal >= 0;
  EXPECT_LE(slots.size(), gatedActors);
  const size_t table = src.find("static const int slots[");
  if (table != std::string::npos) {
    const size_t open = src.find('{', table) + 1;
    std::istringstream listed(src.substr(open, src.find('}', open) - open));
    for (int slot; listed >> slot; listed.ignore()) slots.push_back(slot);
  }

  const std::string lenHead = "info->covLen[0] = ";
  const size_t len = src.find(lenHead);
  ASSERT_NE(len, std::string::npos);
  const int total = std::stoi(src.substr(len + lenHead.size()));
  std::sort(slots.begin(), slots.end());
  std::vector<int> every(static_cast<size_t>(total));
  for (int k = 0; k < total; ++k) every[static_cast<size_t>(k)] = k;
  EXPECT_EQ(slots, every);
}

INSTANTIATE_TEST_SUITE_P(
    Models, LeanStepShipped, ::testing::ValuesIn(shippedModels()),
    [](const ::testing::TestParamInfo<std::string>& p) { return p.param; });

// The fuzz differentials' random models, enabled subsystems among them.
class PatternInitFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternInitFuzz, MatchesEngineLibrary) {
  const uint64_t seed = GetParam();
  TestCaseSpec tests;
  tests.seed = seed;
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 500;
  expectPatternInitMatches(*test::randomModel(seed), opt, tests,
                           "fuzz seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternInitFuzz,
                         ::testing::Values(101, 202, 303, 404));

// An enabled subsystem In1 -> G1 -> G2 -> G3 whose outputs leave it while
// the enable toggles: G2's through an unguarded root Gain, G3's straight
// into a root Outport. Disabled steps must hold both, so both stay members;
// G1's output is read only under its own enable, so it may be a local.
TEST(StepPrivateSignals, HeldEnabledOutputsStayMembers) {
  Tiny t("Held");
  t.inport("In1", 1);
  t.inport("En", 2);
  Actor& cmp = t.actor("C", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  System& inner = t.actor("S", "EnabledSubsystem").makeSubsystem();
  inner.addActor("In1", "Inport").params().setInt("port", 1);
  inner.addActor("G1", "Gain").params().setDouble("gain", 2.0);
  inner.addActor("G2", "Gain").params().setDouble("gain", -1.5);
  inner.addActor("G3", "Gain").params().setDouble("gain", 0.25);
  inner.addActor("Out1", "Outport").params().setInt("port", 1);
  inner.addActor("Out2", "Outport").params().setInt("port", 2);
  inner.connect("In1", 1, "G1", 1);
  inner.connect("G1", 1, "G2", 1);
  inner.connect("G2", 1, "G3", 1);
  inner.connect("G2", 1, "Out1", 1);
  inner.connect("G3", 1, "Out2", 1);
  t.actor("G", "Gain").params().setDouble("gain", 3.0);
  t.outport("Out1", 1);
  t.outport("Out2", 2);
  t.wire("En", "C");
  t.wire("In1", "S", 1);
  t.wire("C", "S", 2);
  t.wire("S", 1, "G", 1);
  t.wire("G", "Out1");
  t.wire("S", 2, "Out2", 1);

  TestCaseSpec tests;
  tests.seed = 11;
  PortStimulus gate;
  gate.sequence = {1.0, 0.0, 0.0, 1.0, 0.0};
  tests.ports = {PortStimulus{}, gate};
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 200;

  Simulator sim(t.model());
  const std::string src =
      AccMoSEngine::generate(sim.flatModel(), opt, tests).source;
  const size_t exe = src.find("void Model_Exe(");
  ASSERT_NE(exe, std::string::npos);
  EXPECT_GT(src.find("// Held_S_G1:1"), exe);
  EXPECT_LT(src.find("// Held_S_G2:1"), exe);
  EXPECT_LT(src.find("// Held_S_G3:1"), exe);

  expectPatternInitMatches(t.model(), opt, tests, "held outputs");
  const SimulationResult acc = simulate(t.model(), opt, tests);
  opt.engine = Engine::SSE;
  const SimulationResult sse = simulate(t.model(), opt, tests);
  test::expectSameOutputs(sse, acc, "held outputs, AccMoS vs SSE");
}

}  // namespace
}  // namespace accmos
