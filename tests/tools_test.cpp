#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <thread>

#include "comm/client_link.hpp"
#include "grid/synthetic.hpp"
#include "viz/session.hpp"

/// Multi-process smoke tests: launch the real viracocha-server binary,
/// talk to it over TCP from this process and through the viracocha-cli
/// binary. Binary locations are injected by CMake.

#ifndef VIRA_SERVER_BIN
#define VIRA_SERVER_BIN "viracocha-server"
#endif
#ifndef VIRA_CLI_BIN
#define VIRA_CLI_BIN "viracocha-cli"
#endif

namespace {

std::string dataset_dir() {
  static std::string dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "vira_tools_ds").string();
    vira::grid::ensure_dataset(dir, [&] {
      vira::grid::GeneratorConfig config;
      config.directory = dir;
      config.timesteps = 2;
      config.ni = 9;
      config.nj = 7;
      config.nk = 6;
      vira::grid::generate_engine(config);
    });
  }
  return dir;
}

/// Starts the server in the background (auto-exits after `lifetime_s`) and
/// returns once it accepts connections. Returns the port.
std::uint16_t launch_server(int lifetime_s) {
  for (int candidate = 0; candidate < 3; ++candidate) {
    const auto port = static_cast<std::uint16_t>(
        20000 + ((::getpid() + 4099 * candidate + static_cast<int>(::time(nullptr)) % 97) %
                 20000));
    char command[1024];
    // Every descriptor of the detached pipeline is redirected: a leaked
    // stdout/stderr would make ctest wait for the server's full lifetime.
    std::snprintf(command, sizeof(command),
                  "sh -c '(sleep %d 2>/dev/null | %s --port %u --workers 2 "
                  "> /tmp/vira_tools_server.log 2>&1 &)' > /dev/null 2>&1 < /dev/null",
                  lifetime_s, VIRA_SERVER_BIN, port);
    if (std::system(command) != 0) {
      continue;
    }
    // Wait for the listener (the server exits immediately if the port is
    // taken — then try the next candidate).
    for (int attempt = 0; attempt < 50; ++attempt) {
      try {
        auto probe = vira::comm::tcp_connect("127.0.0.1", port);
        probe->close();
        return port;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }
  return 0;
}

}  // namespace

TEST(Tools, ServerAnswersDirectTcpClients) {
  const auto port = launch_server(20);
  ASSERT_NE(port, 0) << "server did not come up";

  auto link = vira::comm::tcp_connect("127.0.0.1", port);
  vira::viz::ExtractionSession session(
      std::shared_ptr<vira::comm::ClientLink>(link.release()));
  vira::util::ParamList params;
  params.set("dataset", dataset_dir());
  params.set("field", "density");
  params.set_int("workers", 2);
  const auto stats = session.submit("query.field_range", params)->wait();
  EXPECT_TRUE(stats.success) << stats.error;

  // CLI against the same live server: runs a command and writes an OBJ.
  const auto out = (std::filesystem::temp_directory_path() / "vira_tools_cli.obj").string();
  std::filesystem::remove(out);
  char command[1024];
  std::snprintf(command, sizeof(command),
                "%s --port %u --command iso.dataman --out %s dataset=%s field=density "
                "iso=0.85 workers=2 > /tmp/vira_tools_cli.log 2>&1",
                VIRA_CLI_BIN, port, out.c_str(), dataset_dir().c_str());
  EXPECT_EQ(std::system(command), 0);
  EXPECT_TRUE(std::filesystem::exists(out));
  std::filesystem::remove(out);
}

TEST(Tools, CliReportsConnectionFailure) {
  char command[512];
  std::snprintf(command, sizeof(command),
                "%s --port 1 --command iso.dataman dataset=/x > /dev/null 2>&1", VIRA_CLI_BIN);
  EXPECT_NE(std::system(command), 0);  // nothing listens on port 1
}

TEST(Tools, CliRejectsMissingCommand) {
  char command[512];
  std::snprintf(command, sizeof(command), "%s --port 5999 > /dev/null 2>&1", VIRA_CLI_BIN);
  EXPECT_NE(std::system(command), 0);
}
