#include "gridftp/gridftp.h"

#include <cassert>
#include <memory>
#include <utility>

namespace grid3::gridftp {

const char* to_string(TransferStatus s) {
  switch (s) {
    case TransferStatus::kCompleted: return "completed";
    case TransferStatus::kFailedNetwork: return "failed-network";
    case TransferStatus::kFailedNoSpace: return "failed-no-space";
    case TransferStatus::kFailedServerDown: return "failed-server-down";
    case TransferStatus::kFailedNoRoute: return "failed-no-route";
    case TransferStatus::kCancelled: return "cancelled";
  }
  return "?";
}

void GridFtpClient::transfer(TransferRequest req, TransferCallback done) {
  assert(req.src != nullptr && req.dst != nullptr);
  ++started_;
  Attempt att;
  att.first_started = sim_.now();
  att.req = std::move(req);
  att.done = std::move(done);
  if (logger_ != nullptr) {
    logger_->log(sim_.now(), "url-copy", "transfer.start", att.req.lfn,
                 static_cast<double>(att.req.size.count()));
  }
  begin_attempt(std::move(att));
}

void GridFtpClient::begin_attempt(Attempt att) {
  ++att.attempts;
  const TransferRequest& req = att.req;

  if (!req.src->available() || !req.dst->available()) {
    report(att, TransferStatus::kFailedServerDown, Bytes::zero(),
           att.first_started);
    return;
  }
  // Fast-fail when the destination is already visibly full (the naive
  // free-space probe every production script did).  With an SRM
  // reservation the space is guaranteed instead.
  if (req.dest_srm == nullptr && req.dest_volume != nullptr &&
      req.dest_volume->free() < req.size) {
    report(att, TransferStatus::kFailedNoSpace, Bytes::zero(),
           att.first_started);
    return;
  }

  // Move attempt state into the flow callback; `this` outlives all flows.
  auto shared = std::make_shared<Attempt>(std::move(att));
  net_.start_flow(
      shared->req.src->node(), shared->req.dst->node(), shared->req.size,
      [this, shared](const net::FlowResult& flow) {
        finish(std::move(*shared), flow);
      });
}

void GridFtpClient::finish(Attempt att, const net::FlowResult& flow) {
  const TransferRequest& req = att.req;
  switch (flow.status) {
    case net::FlowStatus::kCompleted: {
      // Land the bytes: claim destination space now (TOCTOU window for
      // the unmanaged path) or account into the SRM reservation.
      if (req.dest_srm != nullptr && req.reservation != 0) {
        const auto pin =
            req.dest_srm->put(req.reservation, req.lfn, req.size, sim_.now());
        if (!pin.has_value()) {
          report(att, TransferStatus::kFailedNoSpace, Bytes::zero(),
                 att.first_started);
          return;
        }
      } else if (req.dest_volume != nullptr) {
        if (!req.dest_volume->allocate(req.size)) {
          report(att, TransferStatus::kFailedNoSpace, Bytes::zero(),
                 att.first_started);
          return;
        }
      }
      report(att, TransferStatus::kCompleted, req.size, att.first_started);
      return;
    }
    case net::FlowStatus::kFailedNetworkInterruption: {
      if (att.req.retry.allows(att.attempts - 1)) {
        if (logger_ != nullptr) {
          logger_->log(sim_.now(), "url-copy", "transfer.retry", req.lfn,
                       static_cast<double>(att.attempts));
        }
        const Time backoff = att.req.retry.delay(att.attempts);
        auto shared = std::make_shared<Attempt>(std::move(att));
        sim_.schedule_in(backoff, [this, shared] {
          begin_attempt(std::move(*shared));
        });
        return;
      }
      report(att, TransferStatus::kFailedNetwork, flow.transferred,
             att.first_started);
      return;
    }
    case net::FlowStatus::kFailedNoRoute:
      report(att, TransferStatus::kFailedNoRoute, Bytes::zero(),
             att.first_started);
      return;
    case net::FlowStatus::kCancelled:
      report(att, TransferStatus::kCancelled, flow.transferred,
             att.first_started);
      return;
  }
}

void GridFtpClient::report(const Attempt& att, TransferStatus status,
                           Bytes moved, Time started) {
  TransferRecord rec;
  rec.status = status;
  rec.requested = att.req.size;
  rec.transferred = moved;
  rec.started = started;
  rec.finished = sim_.now();
  rec.attempts = att.attempts;
  rec.lfn = att.req.lfn;
  if (status == TransferStatus::kCompleted) {
    ++completed_;
  } else {
    ++failed_;
  }
  if (logger_ != nullptr) {
    logger_->log(sim_.now(), "url-copy",
                 status == TransferStatus::kCompleted ? "transfer.end"
                                                      : "transfer.error",
                 att.req.lfn, static_cast<double>(moved.count()));
  }
  if (att.done) att.done(rec);
}

}  // namespace grid3::gridftp
