// In-process tests of the command-line driver.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "constraints/constraint_io.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"
#include "sat/dimacs.h"
#include "sat/encode.h"
#include "sat/solver.h"

namespace picola {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return testing::TempDir() + "picola_cli_" + name;
  }
  void write(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  }
  std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return cli::run(args, out_, err_);
  }
  std::ostringstream out_, err_;
};

constexpr const char* kCon =
    ".n 15\n1 5 7 13\n0 1\n8 13\n5 6 7 8 13\n.e\n";

std::string example(const char* name) {
  return std::string(PICOLA_EXAMPLES_DIR) + "/" + name;
}

TEST_F(CliTest, EncodeConFile) {
  std::string in = temp_path("paper.con");
  write(in, kCon);
  EXPECT_EQ(run({"encode", in}), 0);
  EXPECT_NE(out_.str().find("satisfied 3/4"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("5 implementation cubes"), std::string::npos);
}

TEST_F(CliTest, EncodeWritesCodesFile) {
  std::string in = temp_path("w.con");
  std::string codes = temp_path("codes.txt");
  write(in, kCon);
  EXPECT_EQ(run({"encode", in, "-o", codes, "--quiet"}), 0);
  std::string text = slurp(codes);
  // 15 symbols, one line each, 4-bit codes.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 15);
}

TEST_F(CliTest, EncodeAllAlgorithms) {
  std::string in = temp_path("all.con");
  write(in, kCon);
  for (const char* algo :
       {"picola", "nova", "enc", "anneal", "sequential", "gray", "random"}) {
    EXPECT_EQ(run({"encode", in, "--algorithm", algo, "--quiet"}), 0) << algo;
  }
}

TEST_F(CliTest, EncodeRejectsUnknownAlgorithm) {
  std::string in = temp_path("bad.con");
  write(in, kCon);
  EXPECT_NE(run({"encode", in, "--algorithm", "magic"}), 0);
}

TEST_F(CliTest, EncodeFromKiss) {
  std::string in = temp_path("m.kiss2");
  write(in, write_kiss(make_example_fsm("vending")));
  EXPECT_EQ(run({"encode", in, "--quiet"}), 0);
  EXPECT_NE(out_.str().find("algorithm picola"), std::string::npos);
}

TEST_F(CliTest, AssignProducesVerifiedPla) {
  std::string in = temp_path("t.kiss2");
  std::string outpla = temp_path("t.pla");
  write(in, write_kiss(make_example_fsm("traffic")));
  EXPECT_EQ(run({"assign", in, "-o", outpla}), 0);
  EXPECT_NE(out_.str().find("self-check PASS"), std::string::npos)
      << out_.str();
  EXPECT_NE(slurp(outpla).find(".i "), std::string::npos);
}

TEST_F(CliTest, MinimizeShrinksPla) {
  std::string in = temp_path("f.pla");
  write(in, ".i 3\n.o 1\n000 1\n001 1\n011 1\n111 1\n.e\n");
  EXPECT_EQ(run({"minimize", in}), 0);
  EXPECT_NE(out_.str().find("4 -> 2 terms"), std::string::npos) << out_.str();
}

TEST_F(CliTest, MinimizeExactMode) {
  std::string in = temp_path("e.pla");
  write(in, ".i 3\n.o 1\n000 1\n001 1\n011 1\n111 1\n.e\n");
  EXPECT_EQ(run({"minimize", in, "--exact"}), 0);
  EXPECT_NE(out_.str().find("-> 2 terms"), std::string::npos);
}

TEST_F(CliTest, InfoOnAllKinds) {
  std::string con = temp_path("i.con");
  write(con, kCon);
  EXPECT_EQ(run({"info", con}), 0);
  EXPECT_NE(out_.str().find("15 symbols"), std::string::npos);

  std::string kiss = temp_path("i.kiss2");
  write(kiss, write_kiss(make_example_fsm("elevator")));
  EXPECT_EQ(run({"info", kiss}), 0);
  EXPECT_NE(out_.str().find("KISS2 FSM"), std::string::npos);

  std::string pla = temp_path("i.pla");
  write(pla, ".i 2\n.o 1\n01 1\n.e\n");
  EXPECT_EQ(run({"info", pla}), 0);
  EXPECT_NE(out_.str().find("PLA: 2 inputs"), std::string::npos);
}

TEST_F(CliTest, EncodeInputOnMvPla) {
  std::string in = temp_path("f.mv");
  write(in,
        ".mv 4 2 6 4\n00 100110 1000\n01 100110 1000\n1- 100110 0100\n"
        "-0 011000 0010\n-1 011000 0011\n00 000001 0001\n01 000001 1001\n"
        "1- 000001 0001\n.e\n");
  EXPECT_EQ(run({"encode-input", in}), 0);
  EXPECT_NE(out_.str().find("encoded with 3 bits"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find(".mv"), std::string::npos);
}

TEST_F(CliTest, EncodeInputRejectsBadVar) {
  std::string in = temp_path("v.mv");
  write(in, ".mv 2 1 3\n0 111\n.e\n");
  EXPECT_NE(run({"encode-input", in, "--var", "0"}), 0);
  EXPECT_NE(run({"encode-input", in, "--var", "9"}), 0);
}

TEST_F(CliTest, ErrorsAreGraceful) {
  EXPECT_NE(run({}), 0);
  EXPECT_NE(run({"frobnicate", "x"}), 0);
  EXPECT_NE(run({"encode"}), 0);
  EXPECT_NE(run({"encode", temp_path("missing.con")}), 0);
  EXPECT_NE(run({"encode", temp_path("missing.con"), "--bits"}), 0);
  std::string junk = temp_path("junk.con");
  write(junk, "????");
  EXPECT_NE(run({"info", junk}), 0);
}

TEST_F(CliTest, EncodeReportsBadBitsInsteadOfCrashing) {
  // Regression: --bits beyond 31 used to truncate codes silently, and a
  // too-short length tripped an assert.  Both must exit with a message.
  std::string in = temp_path("badbits.con");
  write(in, kCon);
  EXPECT_EQ(run({"encode", in, "--bits", "2"}), 1);
  EXPECT_NE(err_.str().find("too small"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"encode", in, "--bits", "40"}), 1);
  EXPECT_NE(err_.str().find("31"), std::string::npos) << err_.str();
}

TEST_F(CliTest, EveryEncoderRefusesATooShortCodeLength) {
  // overlap.con has 8 symbols, so 2 bits cannot give each its own code.
  // nova, anneal, random and exact used to crash here (a double free,
  // heap corruption, a segfault), enc to end on an uncaught exception,
  // and sequential and gray to print out-of-range codes.
  const std::string in = example("overlap.con");
  for (const char* algo : {"picola", "picola-best", "nova", "enc", "anneal",
                           "sequential", "gray", "random", "exact"}) {
    EXPECT_EQ(run({"encode", in, "--algorithm", algo, "--bits", "2"}), 1)
        << algo;
    EXPECT_NE(err_.str().find("too small"), std::string::npos)
        << algo << ": " << err_.str();
  }
  for (const char* backend : {"picola", "sat", "anneal", "portfolio"}) {
    EXPECT_EQ(run({"encode", in, "--backend", backend, "--bits", "2"}), 1)
        << backend;
    EXPECT_NE(err_.str().find("too small"), std::string::npos)
        << backend << ": " << err_.str();
  }
  // The service pool answers each request with the same refusal (the
  // anneal backend used to corrupt the pool's heap here).
  for (const char* backend : {"picola", "sat", "anneal", "portfolio"}) {
    std::istringstream requests(in + "\n");
    out_.str("");
    EXPECT_EQ(cli::run({"serve", "--bits", "2", "--backend", backend},
                       requests, out_, err_),
              0)
        << backend;
    EXPECT_EQ(out_.str().rfind("error " + in + ": ", 0), 0u)
        << backend << ": " << out_.str();
    EXPECT_NE(out_.str().find("too small"), std::string::npos)
        << backend << ": " << out_.str();
  }
}

TEST_F(CliTest, UnknownOptionsAreRefused) {
  const std::string in = example("overlap.con");
  EXPECT_EQ(run({"encode", in, "--frobnicate"}), 2);
  EXPECT_EQ(err_.str(), "unknown option --frobnicate\n");
  EXPECT_EQ(out_.str(), "");
  // Removed options are unknown too, so the value after one is never
  // taken for a problem file.
  std::string list = temp_path("unknown.list");
  write(list, in + "\n");
  for (const char* opt : {"--card", "--distinct", "--sweep", "--steps"}) {
    EXPECT_EQ(run({"batch", list, opt, "pairwise"}), 2) << opt;
    EXPECT_EQ(err_.str(), std::string("unknown option ") + opt + "\n");
    EXPECT_EQ(out_.str(), "") << opt;
  }
}

TEST_F(CliTest, EncodeRejectsMalformedConstraintLines) {
  std::string in = temp_path("dup.con");
  write(in, ".n 4\n0 1 0\n.e\n");
  EXPECT_NE(run({"encode", in}), 0);
  EXPECT_NE(err_.str().find("duplicate member"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, EncodeSelfCheckFlag) {
  std::string in = temp_path("selfcheck.con");
  write(in, kCon);
  EXPECT_EQ(run({"encode", in, "--self-check", "--quiet"}), 0);
  EXPECT_NE(out_.str().find("satisfied 3/4"), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, EncodeBackendPortfolio) {
  std::string in = temp_path("backend.con");
  write(in, kCon);
  EXPECT_EQ(run({"encode", in, "--backend", "portfolio", "--restarts", "2",
                 "--quiet"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("# backend portfolio winner "), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, EncodeBackendSatWinsOnOwnPlan) {
  std::string in = temp_path("backend_sat.con");
  write(in, ".n 6\n0 1 2\n2 3\n4 5\n1 3 5\n.e\n");
  EXPECT_EQ(run({"encode", in, "--backend", "sat", "--quiet"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("# backend sat winner sat"), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, EncodeBackendRejectsBadValues) {
  std::string in = temp_path("backend_bad.con");
  write(in, kCon);
  EXPECT_NE(run({"encode", in, "--backend", "cplex"}), 0);
  EXPECT_NE(run({"encode", in, "--backend", "sat", "--algorithm", "picola"}),
            0);
  EXPECT_NE(run({"encode", in, "--backend", "sat", "--card", "magic"}), 0);
}

TEST_F(CliTest, BatchBackendReportsWinnerInJson) {
  std::string in = temp_path("batch_backend.con");
  write(in, kCon);
  std::string list = temp_path("batch_backend.list");
  write(list, in + "\n");
  EXPECT_EQ(run({"batch", list, "--backend", "portfolio", "--restarts", "2",
                 "--json"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("\"backend\":\""), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, BatchCacheDirWarmRestartHitsCache) {
  std::string in = temp_path("batch_persist.con");
  write(in, kCon);
  std::string list = temp_path("batch_persist.list");
  write(list, in + "\n");
  std::string dir = temp_path("batch_persist_cache");

  // Cold run populates the durable cache (shutdown snapshot).
  EXPECT_EQ(run({"batch", list, "--restarts", "2", "--cache-dir", dir,
                 "--snapshot-interval", "-1", "--json"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("\"cache_hits\":0"), std::string::npos)
      << out_.str();

  // Warm run — a fresh service recovers the dir: same job, cache hit.
  EXPECT_EQ(run({"batch", list, "--restarts", "2", "--cache-dir", dir,
                 "--snapshot-interval", "-1", "--json"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("\"cache_hits\":1"), std::string::npos)
      << out_.str();

  for (const std::string& f :
       {dir + "/snapshot.pcs", dir + "/snapshot.pcs.tmp"})
    std::remove(f.c_str());
  // Journals (if any) share the dir; sweep leftovers before rmdir.
  std::remove((dir + "/journal-1.pcj").c_str());
  rmdir(dir.c_str());
}

TEST_F(CliTest, SnapshotIntervalRequiresCacheDir) {
  std::string in = temp_path("si.con");
  write(in, kCon);
  std::string list = temp_path("si.list");
  write(list, in + "\n");
  EXPECT_NE(run({"batch", list, "--snapshot-interval", "5"}), 0);
  EXPECT_NE(err_.str().find("--cache-dir"), std::string::npos) << err_.str();
}

TEST_F(CliTest, SatExportRoundTripReproducesVerdict) {
  std::string in = temp_path("se.con");
  write(in, kCon);
  std::string cnfpath = temp_path("se.cnf");
  EXPECT_EQ(run({"sat-export", in, "--bits", "4", "-o", cnfpath}), 0)
      << err_.str();
  std::string text = slurp(cnfpath);
  EXPECT_EQ(text.rfind("c picola sat-export", 0), 0u) << text.substr(0, 80);

  // The exported formula parses back and solves to the same verdict as
  // the directly built reduction.
  sat::DimacsParseResult parsed = sat::parse_dimacs(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ConstraintParseResult cs = parse_constraints(kCon);
  ASSERT_TRUE(cs.ok());
  sat::FaceCnf direct = sat::build_face_cnf(cs.set, 4);
  EXPECT_EQ(parsed.cnf.num_vars, direct.cnf.num_vars);
  EXPECT_EQ(parsed.cnf.clauses.size(), direct.cnf.clauses.size());
  sat::Solver s_parsed(parsed.cnf);
  sat::Solver s_direct(direct.cnf);
  EXPECT_EQ(s_parsed.solve(), s_direct.solve());
}

TEST_F(CliTest, SatExportToStdoutAndErrors) {
  std::string in = temp_path("se2.con");
  write(in, kCon);
  EXPECT_EQ(run({"sat-export", in}), 0) << err_.str();
  EXPECT_NE(out_.str().find("p cnf "), std::string::npos);
  EXPECT_NE(run({"sat-export", temp_path("missing.con")}), 0);
  EXPECT_NE(run({"sat-export", in, "--bits", "0"}), 0);
  EXPECT_NE(run({"sat-export", in, "--card", "magic"}), 0);
}

TEST_F(CliTest, SatExportClausesPin) {
  // Pins the reduction's clauses: one hash over every non-comment line
  // `sat-export` writes, with and without selectors, for each problem in
  // examples/data.
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over bytes
  long lines_hashed = 0;
  for (const char* name : {"elevator.kiss2", "microcode.con", "overlap.con",
                           "paper_fig1.con", "traffic.kiss2",
                           "vending.kiss2"}) {
    for (bool selectors : {false, true}) {
      std::vector<std::string> args = {"sat-export", example(name)};
      if (selectors) args.push_back("--selectors");
      ASSERT_EQ(run(args), 0) << name << ": " << err_.str();
      std::istringstream lines(out_.str());
      std::string line;
      while (std::getline(lines, line)) {
        if (line.rfind("c", 0) == 0) continue;
        for (char ch : line + "\n") {
          h ^= static_cast<uint8_t>(ch);
          h *= 0x100000001B3ULL;
        }
        ++lines_hashed;
      }
    }
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(h));
  EXPECT_EQ(lines_hashed, 7'308);
  EXPECT_EQ(std::string(hex), "0x1b1634a3e069dd9b");
}

TEST_F(CliTest, BatchSelfCheckFlag) {
  std::string in = temp_path("batch_sc.con");
  write(in, kCon);
  std::string list = temp_path("batch_sc.list");
  write(list, in + "\n");
  EXPECT_EQ(run({"batch", list, "--self-check", "--restarts", "2"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("1/1 files"), std::string::npos) << out_.str();
}

}  // namespace
}  // namespace picola
