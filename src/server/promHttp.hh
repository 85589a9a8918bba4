/**
 * @file
 * Minimal HTTP/1.1 endpoint serving the Prometheus exposition page
 * (`sdnavd --prom-port`).
 *
 * One thread, one request per connection: poll-accept, read the
 * request head, answer `GET /metrics` (and `GET /`) with
 * `Registry::global().prometheusText()`, anything else with 404,
 * close. Scrapes arrive every few seconds at most, so there is
 * nothing to pool; the cost is one registry fold per scrape, off the
 * query path entirely.
 */

#ifndef SDNAV_SERVER_PROM_HTTP_HH
#define SDNAV_SERVER_PROM_HTTP_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace sdnav::server
{

class PromHttpServer
{
  public:
    PromHttpServer() = default;

    /** Stops and joins if still running. */
    ~PromHttpServer();

    PromHttpServer(const PromHttpServer &) = delete;
    PromHttpServer &operator=(const PromHttpServer &) = delete;

    /**
     * Bind 127.0.0.1:<port> (0 picks an ephemeral port, see port()),
     * listen, and spawn the serving thread.
     * @throws ModelError when the socket cannot be bound.
     */
    void start(std::uint16_t port);

    /** Stop serving and join; safe to call more than once. */
    void stop();

    /** The bound port (the chosen one when start() was given 0). */
    std::uint16_t port() const { return port_; }

    /** True between start() and stop(). */
    bool running() const { return listenFd_ >= 0; }

  private:
    void serveLoop();

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

} // namespace sdnav::server

#endif // SDNAV_SERVER_PROM_HTTP_HH
