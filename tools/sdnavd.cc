/**
 * @file
 * sdnavd — the availability-query daemon.
 *
 * Serves the newline-delimited JSON protocol (src/server/protocol.hh)
 * on a loopback TCP port, keeping compiled exact models hot in an
 * LRU cache so interactive what-if sweeps skip BDD compilation.
 *
 *   sdnavd --port 0 --port-file /tmp/sdnavd.port &
 *   echo '{"id":1,"catalog":"opencontrail","nodes":3}' \
 *       | nc 127.0.0.1 $(cat /tmp/sdnavd.port)
 *
 * Stops gracefully on SIGINT/SIGTERM or the "shutdown" command:
 * in-flight requests finish and get their replies, exit status 0.
 */

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/error.hh"
#include "common/parse.hh"
#include "obs/trace.hh"
#include "server/server.hh"

namespace
{

using namespace sdnav;

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig);
}

void
printUsage()
{
    std::cout <<
        "usage: sdnavd [options]\n"
        "\n"
        "options:\n"
        "  --port P            listen port (default 0 = ephemeral)\n"
        "  --port-file FILE    write the bound port to FILE once\n"
        "                      listening (for scripts using --port 0)\n"
        "  --workers N         most model compiles at once, and the\n"
        "                      threads per query batch\n"
        "                      (default 0 = hardware); each compile\n"
        "                      slot keeps one compile's memory for\n"
        "                      the next, so N also bounds the\n"
        "                      compile memory the server retains\n"
        "  --cache N           compiled-model LRU capacity "
        "(default 16)\n"
        "  --max-line-bytes N  largest accepted request line\n"
        "                      (default 1048576)\n"
        "  --max-batch N       largest accepted query batch "
        "(default 256)\n"
        "  --request-log FILE  append one JSONL record per request\n"
        "  --slow-ms MS        flag requests slower than MS\n"
        "                      (trace instant + server.slow_requests)\n"
        "  --prom-port P       serve Prometheus text exposition on\n"
        "                      127.0.0.1:P (0 = ephemeral)\n"
        "  --compile-budget-ms MS\n"
        "                      per-query compile wall deadline; an\n"
        "                      over-budget compile gets a\n"
        "                      budget_exceeded error reply\n"
        "  --compile-node-cap N\n"
        "                      per-query BDD node cap (same\n"
        "                      reply; 0 = unlimited)\n"
        "  --trace FILE        write a Chrome trace of all request\n"
        "                      spans on shutdown\n"
        "\n"
        "Protocol and stats fields: README, \"Availability-query "
        "server\" and \"Server observability\".\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    server::ServerOptions options;
    std::string portFile;
    std::string traceFile;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                printUsage();
                return 0;
            }
            require(arg.rfind("--", 0) == 0 && i + 1 < argc,
                    "option " + arg + " needs a value");
            std::string value = argv[++i];
            if (arg == "--port") {
                options.port = static_cast<std::uint16_t>(
                    parseCount(value, "--port", 65535));
            } else if (arg == "--port-file") {
                portFile = value;
            } else if (arg == "--workers") {
                options.workers =
                    parseCount(value, "--workers", 1024);
            } else if (arg == "--cache") {
                options.cacheCapacity =
                    parseCount(value, "--cache", 1 << 20);
            } else if (arg == "--max-line-bytes") {
                options.maxLineBytes =
                    parseCount(value, "--max-line-bytes");
            } else if (arg == "--max-batch") {
                options.maxBatch =
                    parseCount(value, "--max-batch", 1 << 20);
            } else if (arg == "--request-log") {
                options.requestLogPath = value;
            } else if (arg == "--slow-ms") {
                options.slowMs =
                    parseDouble(value, "--slow-ms", 0.0);
            } else if (arg == "--prom-port") {
                options.promEnabled = true;
                options.promPort = static_cast<std::uint16_t>(
                    parseCount(value, "--prom-port", 65535));
            } else if (arg == "--compile-budget-ms") {
                options.compileBudgetMs =
                    parseDouble(value, "--compile-budget-ms", 0.0);
            } else if (arg == "--compile-node-cap") {
                options.compileNodeCap =
                    parseCount(value, "--compile-node-cap");
            } else if (arg == "--trace") {
                traceFile = value;
            } else {
                throw ModelError("unknown option: " + arg);
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        printUsage();
        return 2;
    }

    try {
        // Enable before start() so session and acceptor threads never
        // race the enable flag.
        if (!traceFile.empty())
            obs::Tracer::global().enable();

        server::Server srv(options);
        srv.start();

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);

        std::cout << "sdnavd listening on 127.0.0.1:" << srv.port()
                  << std::endl;
        if (options.promEnabled) {
            std::cout << "sdnavd metrics on http://127.0.0.1:"
                      << srv.promPort() << "/metrics" << std::endl;
        }
        if (!portFile.empty()) {
            std::ofstream out(portFile);
            out << srv.port() << "\n";
            require(out.good(),
                    "cannot write port file: " + portFile);
        }

        // Wake on either exit path: a delivered signal or the
        // protocol's "shutdown" command flipping the server flag.
        while (g_signal.load() == 0 && !srv.stopping())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        srv.requestStop();
        srv.wait();
        if (!traceFile.empty()) {
            obs::Tracer::global().disable();
            obs::Tracer::global().writeFile(traceFile);
        }
        std::cout << "sdnavd stopped" << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
