// Writes the seed corpus for fuzz_wire: one file per encoded frame
// BODY (the decoders' input — the u32 length prefix is the transport's
// business) covering every Msg* alternative plus both handshake
// payloads and a few hand-broken variants that exercise rejection
// paths. Regenerate with:
//
//   ./make_wire_corpus fuzz/corpus/wire
//
// The corpus is checked in; this tool only needs rerunning when the
// wire format (and so kWireVersion) changes.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/wire.hpp"

using namespace swh;

namespace {

int files_written = 0;

void write_body(const std::string& dir, const std::string& name,
                const std::vector<std::uint8_t>& frame) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    if (!out) {
        std::perror(("open " + dir + "/" + name).c_str());
        std::exit(1);
    }
    out.write(reinterpret_cast<const char*>(frame.data()) + 4,
              static_cast<std::streamsize>(frame.size() - 4));
    ++files_written;
}

template <typename Msg>
void seed(const std::string& dir, const std::string& name, const Msg& msg) {
    std::vector<std::uint8_t> frame;
    net::wire::encode(msg, frame);
    write_body(dir, name, frame);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
        return 2;
    }
    const std::string dir = argv[1];

    seed(dir, "register", net::MasterMsg{net::MsgRegister{
                              1, core::PeKind::Gpu}});
    seed(dir, "work_request", net::MasterMsg{net::MsgWorkRequest{2}});
    seed(dir, "progress", net::MasterMsg{net::MsgProgress{0, 3.2e9}});
    seed(dir, "task_done",
         net::MasterMsg{net::MsgTaskDone{
             1, 7, core::TaskResult{7, 3, 123456, {{5, 250}, {9, -4}}}}});
    seed(dir, "deregister", net::MasterMsg{net::MsgDeregister{3}});
    seed(dir, "heartbeat", net::MasterMsg{net::MsgHeartbeat{0}});
    seed(dir, "task_failed",
         net::MasterMsg{net::MsgTaskFailed{2, 9, "engine raised"}});
    seed(dir, "assign",
         net::SlaveMsg{net::MsgAssign{{{1, 0, 9000}, {2, 1, 8100}}}});
    seed(dir, "assign_empty", net::SlaveMsg{net::MsgAssign{{}}});
    seed(dir, "no_work_yet", net::SlaveMsg{net::MsgNoWorkYet{}});
    seed(dir, "shutdown", net::SlaveMsg{net::MsgShutdown{}});
    seed(dir, "hello",
         net::wire::Hello{core::PeKind::SseCore, "seed-slave"});
    net::wire::Welcome welcome;
    welcome.pe = 1;
    welcome.top_k = 10;
    welcome.liveness = true;
    seed(dir, "welcome", welcome);

    // Rejection seeds: truncated, trailing byte, wrong version, bogus
    // tag — so the fuzzer starts with the error paths in its map.
    {
        std::vector<std::uint8_t> frame;
        net::wire::encode(net::MasterMsg{net::MsgHeartbeat{1}}, frame);
        std::vector<std::uint8_t> trunc(frame.begin(),
                                        frame.end() - 2);
        write_body(dir, "truncated", trunc);
        std::vector<std::uint8_t> padded = frame;
        padded.push_back(0);
        write_body(dir, "trailing_byte", padded);
        std::vector<std::uint8_t> badver = frame;
        badver[4] = 0x7F;
        write_body(dir, "bad_version", badver);
        std::vector<std::uint8_t> badtag = frame;
        badtag[5] = 0xEE;
        write_body(dir, "bad_tag", badtag);
    }

    std::printf("wrote %d seeds to %s\n", files_written, dir.c_str());
    return 0;
}
