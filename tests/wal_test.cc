// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "test_util.h"

namespace ltam {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ltam_wal_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
            ".log";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"auth", {"1", "[5, 20]"}}));
    ASSERT_OK(wal.Append({"move", {"10", "0", "5"}}));
    ASSERT_OK(wal.Sync());
    EXPECT_EQ(wal.appended(), 2u);
  }
  std::vector<Record> replayed;
  ASSERT_OK(ReplayWal(path_, [&replayed](const Record& rec) {
    replayed.push_back(rec);
    return Status::OK();
  }));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].type, "auth");
  EXPECT_EQ(replayed[1].type, "move");
  EXPECT_EQ(replayed[1].fields, (std::vector<std::string>{"10", "0", "5"}));
}

TEST_F(WalTest, AppendIsDurableAcrossReopen) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"first", {}}));
  }
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"second", {}}));
  }
  size_t count = 0;
  ASSERT_OK(ReplayWal(path_, [&count](const Record&) {
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 2u);
}

TEST_F(WalTest, TornFinalLineIgnored) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"good", {"1"}}));
  }
  {
    // Simulate a crash mid-append: no trailing newline.
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "torn\trecord-without-newline";
  }
  std::vector<std::string> types;
  ASSERT_OK(ReplayWal(path_, [&types](const Record& rec) {
    types.push_back(rec.type);
    return Status::OK();
  }));
  EXPECT_EQ(types, std::vector<std::string>{"good"});
}

/// Writes `bytes` as the whole content of `path`.
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Tail repair reads backward from the end: a clean or empty log stays
/// as it is, a torn record is measured and cut back to the last newline
/// whether it fits in one backward block or spans several, and a log
/// with no newline at all is cut to nothing.
TEST_F(WalTest, TornTailRepairKeepsEverythingUpToTheLastNewline) {
  const std::string records = "good\t1\nmore\t2\n";

  WriteFile(path_, records);
  ASSERT_OK_AND_ASSIGN(size_t torn, TornWalTailBytes(path_));
  EXPECT_EQ(torn, 0u);
  ASSERT_OK_AND_ASSIGN(size_t dropped, TruncateTornWalTail(path_));
  EXPECT_EQ(dropped, 0u) << "clean file";
  EXPECT_EQ(ReadFile(path_), records);

  WriteFile(path_, "");
  ASSERT_OK_AND_ASSIGN(dropped, TruncateTornWalTail(path_));
  EXPECT_EQ(dropped, 0u) << "empty file";
  EXPECT_EQ(ReadFile(path_), "");

  const std::string short_tail = "torn\tshort";
  ASSERT_LT(short_tail.size(), kWalTailBlock);
  WriteFile(path_, records + short_tail);
  ASSERT_OK_AND_ASSIGN(torn, TornWalTailBytes(path_));
  EXPECT_EQ(torn, short_tail.size());
  ASSERT_OK_AND_ASSIGN(dropped, TruncateTornWalTail(path_));
  EXPECT_EQ(dropped, short_tail.size()) << "torn tail inside one block";
  EXPECT_EQ(ReadFile(path_), records);

  const std::string long_tail(3 * kWalTailBlock + 17, 'x');
  WriteFile(path_, long_tail);
  ASSERT_OK_AND_ASSIGN(torn, TornWalTailBytes(path_));
  EXPECT_EQ(torn, long_tail.size());
  ASSERT_OK_AND_ASSIGN(dropped, TruncateTornWalTail(path_));
  EXPECT_EQ(dropped, long_tail.size()) << "no newline, longer than a block";
  EXPECT_EQ(ReadFile(path_), "");

  // The newline the scan needs lies several blocks back, and exactly at
  // a block boundary counted from the end.
  WriteFile(path_, records + std::string(2 * kWalTailBlock, 'y'));
  ASSERT_OK_AND_ASSIGN(dropped, TruncateTornWalTail(path_));
  EXPECT_EQ(dropped, 2 * kWalTailBlock) << "torn record spanning blocks";
  EXPECT_EQ(ReadFile(path_), records);

  EXPECT_TRUE(TruncateTornWalTail(path_ + ".missing").status().IsIOError());
  EXPECT_TRUE(TornWalTailBytes(path_ + ".missing").status().IsIOError());
}

TEST_F(WalTest, ReplayPropagatesApplyErrors) {
  {
    ASSERT_OK_AND_ASSIGN(WalWriter wal, WalWriter::Open(path_));
    ASSERT_OK(wal.Append({"x", {}}));
  }
  Status st = ReplayWal(path_, [](const Record&) {
    return Status::Internal("apply failed");
  });
  EXPECT_TRUE(st.IsInternal());
}

TEST_F(WalTest, ReplayMissingFileFails) {
  EXPECT_TRUE(ReplayWal("/nonexistent/dir/wal.log", [](const Record&) {
                return Status::OK();
              }).IsIOError());
}

TEST_F(WalTest, OpenBadPathFails) {
  EXPECT_TRUE(WalWriter::Open("/nonexistent/dir/wal.log").status().IsIOError());
}

}  // namespace
}  // namespace ltam
