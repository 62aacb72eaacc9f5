/**
 * @file
 * ServeClient: the client side of the save-serve protocol. One
 * request per connection: connect, send SREQ, hand every streamed
 * SPRG point ack to the caller, and return the terminal
 * SRES/SERR/SBSY as a typed Reply. `save-ctl`, the shard
 * coordinator's daemon lanes and the serve tests are the users.
 *
 * Failure policy mirrors the rest of the harness: connection refusal
 * (ServeUnreachable), timeouts, and protocol corruption throw
 * SimError/TraceError with actionable messages (never a hang — every
 * read is deadline-bounded); an overloaded daemon is NOT an exception
 * but a Reply::Kind::Busy, because load-shedding is an expected answer.
 */

#ifndef SAVE_SERVE_CLIENT_H
#define SAVE_SERVE_CLIENT_H

#include <functional>
#include <string>

#include "serve/protocol.h"
#include "util/error.h"

namespace save {

/** The daemon socket refused the connection: the request never
 *  reached a daemon, so the caller may retry it elsewhere for free. */
class ServeUnreachable : public SimError
{
  public:
    using SimError::SimError;
};

class ServeClient
{
  public:
    /** Per-point ack callback for Fig14 sweep requests. */
    using ProgressFn = std::function<void(const ServeShardAck &)>;

    struct Reply
    {
        enum class Kind
        {
            Ok,
            Busy,
            Error,
        };
        Kind kind = Kind::Ok;
        /** Kind::Error: the daemon-side failure, taxonomy-mapped. */
        WireErrorInfo error;
        /** Kind::Busy: why admission shed the request. */
        ServeBusyInfo busy;
        /** Ok replies, by request kind. */
        ServeStatus status;         ///< Status
        WireSliceResult gemm;       ///< Gemm
    };

    /** Does not connect; every call() opens its own connection. */
    explicit ServeClient(std::string socketPath);

    /**
     * Send one request and wait for the terminal reply, passing each
     * streamed point ack of a Fig14 request to `progress` (which may
     * throw to abandon the call). `timeout_ms` bounds every frame read
     * (< 0 waits forever) and so resets at each ack. A daemon that
     * rejects the request answers a typed SERR, which surfaces as
     * Reply::Kind::Error. Throws ServeUnreachable when nothing accepts
     * the connection, SimError when the daemon times out or hangs up,
     * TraceError on protocol corruption, which includes an ack out of
     * `req.points` order and an SRES before every point was acked.
     */
    Reply call(const ServeRequest &req,
               const ProgressFn &progress = nullptr,
               int timeout_ms = -1);

    const std::string &socketPath() const { return path_; }

  private:
    std::string path_;
};

} // namespace save

#endif // SAVE_SERVE_CLIENT_H
