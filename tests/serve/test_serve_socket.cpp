#include "serve/socket.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "graph/model_parser.hpp"
#include "hwsim/target.hpp"
#include "pipeline/model_tuner.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

/// A raw connection to `path`, for tests that send bytes no well-behaved
/// ServeClient would.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// Writes all of `bytes`, stopping quietly once the peer has closed.
void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

/// True when `fd` has something to read (data or EOF) within `timeout`.
bool readable_within(int fd, milliseconds timeout) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, static_cast<int>(timeout.count())) == 1;
}

/// A connected socket pair: `reader` wraps one end, `writer_fd` is the
/// other (closed by close_writer or the destructor).
struct ChannelPair {
  ChannelPair() : reader(make_pair(&writer_fd)) {}
  ~ChannelPair() { close_writer(); }

  void close_writer() {
    if (writer_fd >= 0) ::close(writer_fd);
    writer_fd = -1;
  }

  static int make_pair(int* other) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    *other = fds[1];
    return fds[0];
  }

  int writer_fd = -1;
  LineChannel reader;
};

TEST(ServeSocketLineChannel, SplitsAPipelinedBurstAcrossReadBoundaries) {
  // Lines from empty to more than two 4 KiB read chunks long, sent as one
  // burst.
  std::vector<std::string> lines;
  std::string burst;
  for (int i = 0; i < 400; ++i) {
    lines.push_back(std::string(static_cast<std::size_t>(i * 37 % 9001),
                                static_cast<char>('a' + i % 26)));
    burst += lines.back() + '\n';
  }
  ChannelPair pair;
  std::thread writer([&] {
    send_all(pair.writer_fd, burst);
    pair.close_writer();
  });
  std::size_t received = 0;
  while (std::optional<std::string> line = pair.reader.recv_line()) {
    if (received < lines.size()) {
      EXPECT_EQ(*line, lines[received]) << "line " << received;
    }
    ++received;
  }
  writer.join();
  EXPECT_EQ(received, lines.size());
}

TEST(ServeSocketLineChannel, AcceptsALineAtTheCapAndRejectsOneByteMore) {
  const std::size_t cap = LineChannel::kMaxLineBytes;
  ChannelPair pair;
  std::thread writer([&] {
    send_all(pair.writer_fd, std::string(cap, 'a') + '\n');
    send_all(pair.writer_fd, std::string(cap + 1, 'b') + '\n');
    pair.close_writer();
  });
  const std::optional<std::string> at_cap = pair.reader.recv_line();
  EXPECT_EQ(at_cap.value_or("").size(), cap);
  try {
    (void)pair.reader.recv_line();
    ADD_FAILURE() << "expected line_too_long";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kLineTooLong);
  }
  pair.reader.close();  // unblocks the writer if it is still sending
  writer.join();
}

constexpr const char* kTinyModelText =
    "%data = input(shape=[1,8,16,16])\n"
    "%c1 = conv2d(%data, channels=16, kernel=3, pad=1)\n";

/// Daemon-in-a-thread fixture: a TuneServer behind a ServeSocketServer on
/// a temp-dir socket, serviced by a background thread, plus a tiny model
/// file for jobs to tune.
class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aal_serve_sock_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    model_path_ = (dir_ / "tiny.model").string();
    std::ofstream(model_path_) << kTinyModelText;

    TuneServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<TuneServer>(options);
    socket_server_ = std::make_unique<ServeSocketServer>(
        *server_, (dir_ / "serve.sock").string());
    serve_thread_ = std::thread([this] { socket_server_->serve_forever(); });
  }

  void TearDown() override {
    socket_server_->stop();
    serve_thread_.join();
    socket_server_.reset();
    server_.reset();
    fs::remove_all(dir_);
  }

  ServeClient connect() {
    return ServeClient(socket_server_->socket_path(), milliseconds(2000));
  }

  JobSpec tiny_spec(std::int64_t budget = 16) const {
    JobSpec spec;
    spec.model = model_path_;
    spec.budget = budget;
    spec.early_stop = 0;
    return spec;
  }

  fs::path dir_;
  std::string model_path_;
  std::unique_ptr<TuneServer> server_;
  std::unique_ptr<ServeSocketServer> socket_server_;
  std::thread serve_thread_;
};

TEST_F(ServeSocketTest, HelloNegotiatesTheProtocolVersion) {
  ServeClient client = connect();
  ServeRequest hello;
  hello.id = 1;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  const ServeResponse resp = client.call(hello);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.find("version")->as_string(), kServeProtocolVersion);

  // A client speaking a different version gets the typed rejection.
  ServeClient stale = connect();
  hello.version = "aaltune-serve/v0";
  const ServeResponse reject = stale.call(hello);
  EXPECT_FALSE(reject.ok);
  EXPECT_EQ(reject.error, ServeErrorCode::kVersionMismatch);
}

TEST_F(ServeSocketTest, StreamedTraceMatchesTheStandaloneRunByteForByte) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec();
  const ServeResponse admitted = client.call(submit);
  ASSERT_TRUE(admitted.ok) << admitted.message;
  const std::int64_t job = admitted.find("job")->as_int();

  std::ostringstream streamed;
  const ServeResponse end = client.stream(job, streamed);
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(end.find("measured")->as_int(), 16);
  EXPECT_GT(end.find("best_gflops")->as_double(), 0.0);

  // The standalone equivalent of the daemon job (CLI derivations, jobs=1).
  const Graph g = parse_model_file(model_path_);
  ModelTuneOptions options;
  options.tune.budget = 16;
  options.tune.early_stopping = 0;
  options.tune.seed = 1;
  options.device_seed = options.tune.seed * 1009 + 7;
  options.jobs = 1;
  MemoryTraceSink sink;
  options.trace = &sink;
  tune_model(g, make_target("gpu-pascal"),
             tuner_factory_by_name("bted+bao"), options);

  EXPECT_EQ(streamed.str(), sink.to_jsonl());
  EXPECT_EQ(end.find("trace_steps")->as_int(),
            static_cast<std::int64_t>(sink.events().size()));
}

TEST_F(ServeSocketTest, StreamOfUnknownJobFailsTyped) {
  ServeClient client = connect();
  std::ostringstream sink;
  try {
    (void)client.stream(1234, sink);
    FAIL() << "expected unknown_job";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kUnknownJob);
  }
  EXPECT_TRUE(sink.str().empty());
}

TEST_F(ServeSocketTest, CancelOverTheWireIsAcknowledged) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec(/*budget=*/100000);
  const std::int64_t job = client.call(submit).find("job")->as_int();

  server_->wait_progress(job, 2, milliseconds(10000));
  ServeRequest cancel;
  cancel.id = 2;
  cancel.op = ServeOp::kCancel;
  cancel.job = job;
  const ServeResponse resp = client.call(cancel);
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(resp.find("changed")->as_bool());

  const JobInfo info = server_->wait_job(job);
  EXPECT_EQ(info.state, JobState::kCancelled);

  ServeRequest status;
  status.id = 3;
  status.op = ServeOp::kStatus;
  status.job = job;
  EXPECT_EQ(client.call(status).find("state")->as_string(), "cancelled");
}

TEST_F(ServeSocketTest, ShutdownRequestDrainsTheDaemon) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec();
  const std::int64_t job = client.call(submit).find("job")->as_int();

  ServeRequest shutdown;
  shutdown.id = 2;
  shutdown.op = ServeOp::kShutdown;
  ASSERT_TRUE(client.call(shutdown).ok);

  // serve_forever notices the shutdown, drains the job, and returns.
  serve_thread_.join();
  serve_thread_ = std::thread([] {});  // keep TearDown's join() valid
  EXPECT_EQ(server_->status(job).state, JobState::kDone);
  try {
    (void)server_->submit(tiny_spec());
    FAIL() << "expected shutdown rejection";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShuttingDown);
  }
}

TEST_F(ServeSocketTest, ClientThatNeverSendsANewlineGetsLineTooLong) {
  // Well past the channel's cap, with no '\n' anywhere. The daemon must
  // answer with a typed error and hang up instead of buffering it all.
  const int fd = connect_raw(socket_server_->socket_path());
  LineChannel flooded(fd);
  send_all(fd, std::string(std::size_t{4} << 20, 'x'));
  ASSERT_TRUE(readable_within(fd, milliseconds(5000)))
      << "no reply to an unterminated 4 MiB line";
  const std::optional<std::string> reply = flooded.recv_line();
  ASSERT_TRUE(reply.has_value());
  const ServeResponse resp = ServeResponse::parse(*reply);
  EXPECT_FALSE(resp.ok);
  EXPECT_STREQ(serve_error_code_name(resp.error), "line_too_long");
  EXPECT_EQ(resp.id, -1);
  EXPECT_EQ(flooded.recv_line(), std::nullopt);  // connection closed

  // Other connections are unaffected.
  ServeRequest hello;
  hello.id = 2;
  hello.op = ServeOp::kHello;
  EXPECT_TRUE(connect().call(hello).ok);
}

TEST_F(ServeSocketTest, ClientThatDisconnectsMidLineIsDropped) {
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec();
  {
    // A complete submit request minus its '\n', then a hang-up.
    const int fd = connect_raw(socket_server_->socket_path());
    send_all(fd, submit.to_line());
    ::close(fd);
  }
  ServeRequest hello;
  hello.id = 2;
  hello.op = ServeOp::kHello;
  EXPECT_TRUE(connect().call(hello).ok);
  ServeRequest stats;
  stats.id = 3;
  stats.op = ServeOp::kStats;
  EXPECT_EQ(connect().call(stats).find("submitted")->as_int(), 0);
}

TEST_F(ServeSocketTest, PipelinedBurstIsAnsweredInOrder) {
  constexpr int kRequests = 3000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest hello;
    hello.id = i;
    hello.op = ServeOp::kHello;
    burst += hello.to_line() + '\n';
  }
  const int fd = connect_raw(socket_server_->socket_path());
  LineChannel channel(fd);
  // Written from a second thread: the daemon answers while the burst is
  // still arriving, so a single thread could deadlock on full buffers.
  std::thread writer([&] { send_all(fd, burst); });
  int answered = 0;
  while (answered < kRequests) {
    const std::optional<std::string> line = channel.recv_line();
    if (!line) break;
    const ServeResponse resp = ServeResponse::parse(*line);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.id, answered);
    ++answered;
  }
  writer.join();
  EXPECT_EQ(answered, kRequests);
}

}  // namespace
}  // namespace aal
