/**
 * @file
 * Trace wire-format contract: spec parsing, capture -> file -> reader
 * round trips, strict rejection of truncated or corrupt files (any
 * cut point must fail with an error naming the line), and exact
 * replay of a captured stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "traffic/trace_io.hh"

namespace eqx {
namespace {

class TraceFileFixture : public ::testing::Test
{
  protected:
    std::string
    path(const char *name)
    {
        std::string p =
            ::testing::TempDir() + "eqx_trace_" + name + ".json";
        paths_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const auto &p : paths_)
            std::remove(p.c_str());
    }

    std::vector<std::string> paths_;
};

TEST(TraceSpec, ParsesCaptureReplayAndBoth)
{
    TraceSpec s = parseTraceSpec("capture:/tmp/a.json");
    EXPECT_EQ(s.capturePath, "/tmp/a.json");
    EXPECT_TRUE(s.replayPath.empty());

    s = parseTraceSpec("replay:/tmp/b.json");
    EXPECT_EQ(s.replayPath, "/tmp/b.json");
    EXPECT_TRUE(s.capturePath.empty());

    // Both (the round-trip shape), in either order.
    s = parseTraceSpec("replay:/tmp/a.json,capture:/tmp/b.json");
    EXPECT_EQ(s.replayPath, "/tmp/a.json");
    EXPECT_EQ(s.capturePath, "/tmp/b.json");
    s = parseTraceSpec("capture:/tmp/b.json,replay:/tmp/a.json");
    EXPECT_EQ(s.replayPath, "/tmp/a.json");
    EXPECT_EQ(s.capturePath, "/tmp/b.json");
}

TEST(TraceSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseTraceSpec(""), std::runtime_error);
    EXPECT_THROW(parseTraceSpec("capture:"), std::runtime_error);
    EXPECT_THROW(parseTraceSpec("replay:"), std::runtime_error);
    EXPECT_THROW(parseTraceSpec("record:/tmp/a"), std::runtime_error);
    EXPECT_THROW(parseTraceSpec("/tmp/a.json"), std::runtime_error);
    EXPECT_THROW(parseTraceSpec("capture:/a,capture:/b"),
                 std::runtime_error);
    EXPECT_THROW(parseTraceSpec("replay:/a,replay:/b"),
                 std::runtime_error);
}

/** A small two-PE capture used by the file tests. */
TraceCapture
makeCapture()
{
    TraceCapture cap(2, "bfs");
    TraceOp op;
    // PE 0: gap 2, read, gap 0, write, tail 1.
    op = TraceOp{};
    cap.record(0, op);
    cap.record(0, op);
    op.isMem = true;
    op.isWrite = false;
    op.addr = 0x1000;
    cap.record(0, op);
    op.isWrite = true;
    op.addr = 0x2040;
    cap.record(0, op);
    op = TraceOp{};
    cap.record(0, op);
    // PE 1: one read, no gaps.
    op = TraceOp{};
    op.isMem = true;
    op.addr = 0x80;
    cap.record(1, op);
    return cap;
}

TEST_F(TraceFileFixture, CaptureRoundTripsThroughReader)
{
    std::string p = path("roundtrip");
    TraceCapture cap = makeCapture();
    std::string err;
    ASSERT_TRUE(cap.writeFile(p, err)) << err;

    TraceData data;
    ASSERT_TRUE(readTraceFile(p, data, err)) << err;
    EXPECT_EQ(data.workload, "bfs");
    ASSERT_EQ(data.pes.size(), 2u);

    const PeTrace &pe0 = data.pes[0];
    ASSERT_EQ(pe0.ops.size(), 2u);
    EXPECT_EQ(pe0.ops[0].gap, 2u);
    EXPECT_FALSE(pe0.ops[0].isWrite);
    EXPECT_EQ(pe0.ops[0].addr, 0x1000u);
    EXPECT_EQ(pe0.ops[1].gap, 0u);
    EXPECT_TRUE(pe0.ops[1].isWrite);
    EXPECT_EQ(pe0.ops[1].addr, 0x2040u);
    EXPECT_EQ(pe0.tail, 1u);
    EXPECT_EQ(pe0.insts, 5u);

    const PeTrace &pe1 = data.pes[1];
    ASSERT_EQ(pe1.ops.size(), 1u);
    EXPECT_EQ(pe1.ops[0].addr, 0x80u);
    EXPECT_EQ(pe1.insts, 1u);
}

TEST_F(TraceFileFixture, RewritingParsedDataIsByteIdentical)
{
    std::string p1 = path("orig"), p2 = path("rewrite");
    std::string err;
    ASSERT_TRUE(makeCapture().writeFile(p1, err)) << err;

    // Reader -> capture -> writer reproduces the original bytes: the
    // file is a pure function of the op streams.
    TraceData data;
    ASSERT_TRUE(readTraceFile(p1, data, err)) << err;
    TraceCapture cap2(2, data.workload);
    for (int pe = 0; pe < 2; ++pe) {
        ReplaySource src(&data.pes[static_cast<std::size_t>(pe)]);
        TraceOp op;
        while (src.next(op))
            cap2.record(pe, op);
    }
    ASSERT_TRUE(cap2.writeFile(p2, err)) << err;

    std::ifstream a(p1), b(p2);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
}

TEST_F(TraceFileFixture, TruncationAtEveryLineIsRejected)
{
    std::string p = path("full");
    std::string err;
    ASSERT_TRUE(makeCapture().writeFile(p, err)) << err;

    std::vector<std::string> lines;
    {
        std::ifstream in(p);
        std::string l;
        while (std::getline(in, l))
            lines.push_back(l);
    }
    ASSERT_GE(lines.size(), 4u);

    // Every proper prefix must be rejected — the counting footers and
    // the end marker make truncation detectable at any cut.
    for (std::size_t keep = 0; keep < lines.size(); ++keep) {
        std::string cut = path("cut");
        {
            std::ofstream out(cut);
            for (std::size_t i = 0; i < keep; ++i)
                out << lines[i] << "\n";
        }
        TraceData data;
        std::string cut_err;
        EXPECT_FALSE(readTraceFile(cut, data, cut_err))
            << "kept " << keep << " of " << lines.size() << " lines";
        EXPECT_FALSE(cut_err.empty());
    }
}

TEST_F(TraceFileFixture, CorruptFilesAreRejectedWithClearErrors)
{
    std::string base = path("base");
    std::string err;
    ASSERT_TRUE(makeCapture().writeFile(base, err)) << err;
    std::vector<std::string> lines;
    {
        std::ifstream in(base);
        std::string l;
        while (std::getline(in, l))
            lines.push_back(l);
    }

    auto writeLines = [&](const std::vector<std::string> &ls) {
        std::string p = path("corrupt");
        std::ofstream out(p);
        for (const auto &l : ls)
            out << l << "\n";
        return p;
    };
    auto expectReject = [&](std::vector<std::string> ls,
                            const char *what) {
        TraceData data;
        std::string e;
        EXPECT_FALSE(readTraceFile(writeLines(ls), data, e)) << what;
        EXPECT_FALSE(e.empty()) << what;
        // Errors name the offending line so a cut file is debuggable.
        EXPECT_NE(e.find("line"), std::string::npos) << what << ": " << e;
    };

    { // wrong version
        auto ls = lines;
        ls[0] = R"({"_eqx_trace":2,"pes":2,"workload":"bfs"})";
        expectReject(ls, "wrong version");
    }
    { // malformed JSON mid-file
        auto ls = lines;
        ls[1] = "{not json";
        expectReject(ls, "malformed line");
    }
    { // miscounted footer
        auto ls = lines;
        for (auto &l : ls)
            if (l.find("\"mem\"") != std::string::npos &&
                l.find("\"pe\":0") != std::string::npos)
                l = R"({"pe":0,"tail":1,"mem":3,"insts":5})";
        expectReject(ls, "footer op count mismatch");
    }
    { // data after the end marker
        auto ls = lines;
        ls.push_back(R"({"pe":0,"gap":0,"w":0,"addr":64})");
        expectReject(ls, "trailing data");
    }
    { // missing file
        TraceData data;
        std::string e;
        EXPECT_FALSE(
            readTraceFile(path("never-written"), data, e));
        EXPECT_FALSE(e.empty());
    }
}

TEST(ReplaySource, ReproducesTheRecordedInstructionStream)
{
    PeTrace t;
    t.ops = {{2, false, 0x40}, {0, true, 0x80}, {1, false, 0xc0}};
    t.tail = 2;
    t.insts = 8;

    ReplaySource src(&t);

    // Expected instruction-for-instruction expansion.
    struct Step
    {
        bool isMem;
        bool isWrite;
        Addr addr;
    };
    std::vector<Step> want = {{false, false, 0}, {false, false, 0},
                              {true, false, 0x40}, {true, true, 0x80},
                              {false, false, 0},  {true, false, 0xc0},
                              {false, false, 0},  {false, false, 0}};
    TraceOp op;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(src.remaining(), want.size() - i);
        ASSERT_TRUE(src.next(op)) << i;
        EXPECT_EQ(op.isMem, want[i].isMem) << i;
        if (want[i].isMem) {
            EXPECT_EQ(op.isWrite, want[i].isWrite) << i;
            EXPECT_EQ(op.addr, want[i].addr) << i;
        }
    }
    EXPECT_FALSE(src.next(op));
    EXPECT_EQ(src.remaining(), 0u);
}

} // namespace
} // namespace eqx
