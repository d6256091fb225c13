// End-to-end test of the streamtune_cli binary (path injected by CMake).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

std::string Cli() { return STREAMTUNE_CLI_PATH; }

std::string Tmp(const char* tag) {
  return std::string(::testing::TempDir()) + "/cli_" + tag + "_" +
         std::to_string(::getpid()) + ".txt";
}

int RunCli(const std::string& cmd) {
  return std::system((cmd + " > /dev/null 2>&1").c_str());
}

// Runs the CLI and returns its exit code, with its stderr in `*err`.
int RunCliStatus(const std::string& cmd, std::string* err) {
  FILE* pipe = ::popen((cmd + " 2>&1 >/dev/null").c_str(), "r");
  if (!pipe) return -1;
  err->clear();
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) err->append(buf, n);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Runs the CLI capturing stdout; asserts the process exited 0.
std::string RunCliCapture(const std::string& cmd) {
  FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (!pipe) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int rc = ::pclose(pipe);
  EXPECT_EQ(0, rc) << cmd;
  return out;
}

TEST(CliTest, EndToEndPipeline) {
  std::string hist = Tmp("hist");
  std::string kb = Tmp("kb");
  ASSERT_EQ(0, RunCli(Cli() + " collect --workload nexmark-flink --samples 5 "
                           "--out " + hist));
  ASSERT_EQ(0, RunCli(Cli() + " inspect --history " + hist));
  ASSERT_EQ(0, RunCli(Cli() + " pretrain --history " + hist +
                   " --no-cluster --epochs 5 --kb-path " + kb));
  // One cluster line with the center, its size and the encoder's shape.
  const std::string inspected = RunCliCapture(Cli() + " inspect --kb " + kb);
  EXPECT_NE(inspected.find("  cluster 0: center="), std::string::npos)
      << inspected;
  EXPECT_NE(inspected.find(" ops), 25 records, encoder "), std::string::npos)
      << inspected;
  EXPECT_NE(inspected.find("x32 layers=3, appearance=25"), std::string::npos)
      << inspected;
  // Every iteration fitted M_f: no step quietly fell back to DS2.
  const std::string tuned = RunCliCapture(Cli() + " tune --kb-path " + kb +
                                          " --job nexmark:Q1 --rate 5");
  EXPECT_NE(tuned.find(" model_fallbacks=0 "), std::string::npos) << tuned;
  ASSERT_EQ(0, RunCli(Cli() + " tune --kb-path " + kb +
                   " --job pqp:linear:0 --rate 3 --model svm"));
  ASSERT_EQ(0, RunCli(Cli() + " simulate --job nexmark:Q2 --rate 2 "
                           "--parallelism 3,4,2"));
  std::remove(hist.c_str());
  std::remove(kb.c_str());
}

TEST(CliTest, ChaosFlagsInjectDeterministicFaults) {
  std::string hist = Tmp("chaos_hist");
  std::string kb = Tmp("chaos_kb");
  ASSERT_EQ(0, RunCli(Cli() + " collect --workload nexmark-flink --samples 5 "
                           "--out " + hist));
  ASSERT_EQ(0, RunCli(Cli() + " pretrain --history " + hist +
                   " --no-cluster --epochs 5 --kb-path " + kb));

  std::string cmd = Cli() + " tune --kb-path " + kb +
      " --job nexmark:Q1 --rate 5 --chaos-seed 42 --chaos-deploy-fail 0.1 "
      "--chaos-metric-drop 0.1 --chaos-straggler 0.05";
  std::string out1 = RunCliCapture(cmd);
  std::string out2 = RunCliCapture(cmd);
  // Fault injection is fully deterministic per seed.
  EXPECT_EQ(out1, out2);
  EXPECT_NE(out1.find("chaos:"), std::string::npos);
  EXPECT_NE(out1.find("survived:"), std::string::npos);

  // No chaos flags -> no chaos report.
  std::string clean = RunCliCapture(Cli() + " tune --kb-path " + kb +
                                    " --job nexmark:Q1 --rate 5");
  EXPECT_EQ(clean.find("chaos:"), std::string::npos);

  std::remove(hist.c_str());
  std::remove(kb.c_str());
}

TEST(CliTest, RejectsInvalidFaultPlan) {
  // The fault plan is validated before the KB is even loaded, so a
  // nonexistent KB path still exercises the flag error.
  std::string kb = Tmp("nokb");
  EXPECT_NE(0, RunCli(Cli() + " tune --kb-path " + kb +
                   " --job nexmark:Q1 --chaos-deploy-fail 1.5"));
  EXPECT_NE(0, RunCli(Cli() + " tune --kb-path " + kb +
                   " --job nexmark:Q1 --chaos-metric-drop -0.3"));
}

TEST(CliTest, FailsCleanlyOnBadInput) {
  EXPECT_NE(0, RunCli(Cli()));                      // no command
  EXPECT_NE(0, RunCli(Cli() + " bogus"));           // unknown command
  EXPECT_NE(0, RunCli(Cli() + " collect"));         // missing --out
  EXPECT_NE(0, RunCli(Cli() + " tune --kb-path /nonexistent.txt "
                           "--job nexmark:Q1"));
  EXPECT_NE(0, RunCli(Cli() + " simulate --job nexmark:Q99"));
  EXPECT_NE(0, RunCli(Cli() + " simulate --job pqp:linear:999"));

  // pretrain writes a KB file only: --out is not one of its flags.
  std::string hist = Tmp("bad_hist");
  ASSERT_EQ(0, RunCli(Cli() + " collect --workload nexmark-flink --samples 2 "
                           "--out " + hist));
  EXPECT_NE(0, RunCli(Cli() + " pretrain --history " + hist + " --out " +
                   Tmp("bad_out")));

  // Every numeric flag parses strictly (the whole token, finite, in range)
  // and --model must name a model. A bad value exits 2 with the usage text
  // before any file or engine is touched: --admit leaves the KB as it was.
  std::string kb = Tmp("bad_kb");
  ASSERT_EQ(0, RunCli(Cli() + " pretrain --history " + hist +
                   " --no-cluster --epochs 1 --kb-path " + kb));
  const std::string saved = ReadFile(kb);
  std::string err;
  for (const char* bad :
       {"--rate abc", "--rate nan", "--rate -2", "--rate inf", "--rate",
        "--chaos-deploy-fail abc", "--model foo"}) {
    EXPECT_EQ(2, RunCliStatus(Cli() + " tune --kb-path " + kb +
                                  " --job nexmark:Q1 --admit " + bad,
                              &err))
        << bad;
    EXPECT_NE(err.find("usage:"), std::string::npos) << bad << ": " << err;
  }
  EXPECT_EQ(ReadFile(kb), saved);
  const std::string no_history = Tmp("bad_samples");
  EXPECT_EQ(2, RunCliStatus(Cli() + " collect --workload pqp --samples x "
                                "--out " + no_history,
                            &err));
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
  EXPECT_FALSE(std::ifstream(no_history).good());
  std::remove(hist.c_str());
  std::remove(kb.c_str());
}

}  // namespace
