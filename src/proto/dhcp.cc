#include "proto/dhcp.h"

#include "util/digest.h"

namespace pvn {

DhcpServer::DhcpServer(Host& host, Ipv4Addr pool_start, int pool_size)
    : host_(&host), pool_start_(pool_start), pool_size_(pool_size) {
  host_->bind_udp(kDhcpServerPort,
                  [this](Ipv4Addr src, Port, Port, const Bytes& payload) {
                    on_message(src, payload);
                  });
}

void DhcpServer::advertise_pvn(Ipv4Addr deployment_server,
                               std::string standards) {
  pvn_enabled_ = true;
  pvn_server_ = deployment_server;
  pvn_standards_ = std::move(standards);
}

void DhcpServer::on_message(Ipv4Addr src, const Bytes& payload) {
  const auto msg = DhcpMessage::decode(payload);
  if (!msg) return;

  DhcpMessage reply;
  reply.xid = msg->xid;
  reply.client_id = msg->client_id;

  switch (msg->type) {
    case DhcpType::kDiscover: {
      auto it = leases_by_client_.find(msg->client_id);
      if (it == leases_by_client_.end()) {
        if (next_offset_ >= pool_size_) return;  // pool exhausted: silence
        const Ipv4Addr addr{pool_start_.v +
                            static_cast<std::uint32_t>(next_offset_++)};
        it = leases_by_client_.emplace(msg->client_id, addr).first;
      }
      reply.type = DhcpType::kOffer;
      reply.offered = it->second;
      break;
    }
    case DhcpType::kRequest: {
      const auto it = leases_by_client_.find(msg->client_id);
      if (it == leases_by_client_.end() || it->second != msg->offered) {
        reply.type = DhcpType::kNak;
      } else {
        reply.type = DhcpType::kAck;
        reply.offered = it->second;
        ++leases_;
      }
      break;
    }
    default:
      return;
  }

  if (pvn_enabled_ &&
      (reply.type == DhcpType::kOffer || reply.type == DhcpType::kAck)) {
    ByteWriter addr;
    addr.u32(pvn_server_.v);
    reply.options[kDhcpOptPvnServer] = std::move(addr).take();
    reply.options[kDhcpOptPvnStandards] = to_bytes(pvn_standards_);
  }

  host_->send_udp(src, kDhcpServerPort, kDhcpClientPort, reply.encode());
}

DhcpClient::DhcpClient(Host& host) : host_(&host) {
  host_->bind_udp(kDhcpClientPort,
                  [this](Ipv4Addr, Port, Port, const Bytes& payload) {
                    on_message(payload);
                  });
}

void DhcpClient::acquire(Ipv4Addr server, Callback cb, SimDuration timeout) {
  server_ = server;
  cb_ = std::move(cb);
  xid_ = static_cast<std::uint32_t>(host_->sim().now() ^ 0x5A5A) + 1;
  in_progress_ = true;

  DhcpMessage discover;
  discover.type = DhcpType::kDiscover;
  discover.xid = xid_;
  discover.client_id = digest_of(host_->name()).lanes[0];
  host_->send_udp(server_, kDhcpClientPort, kDhcpServerPort, discover.encode());

  timeout_event_ = host_->sim().schedule_after(timeout, SimCategory::kProto, [this] {
    timeout_event_ = kInvalidEventId;
    finish(DhcpLease{});
  });
}

void DhcpClient::on_message(const Bytes& payload) {
  if (!in_progress_) return;
  const auto msg = DhcpMessage::decode(payload);
  if (!msg || msg->xid != xid_) return;

  switch (msg->type) {
    case DhcpType::kOffer: {
      DhcpMessage request;
      request.type = DhcpType::kRequest;
      request.xid = xid_;
      request.client_id = msg->client_id;
      request.offered = msg->offered;
      host_->send_udp(server_, kDhcpClientPort, kDhcpServerPort,
                      request.encode());
      break;
    }
    case DhcpType::kAck: {
      DhcpLease lease;
      lease.ok = true;
      lease.addr = msg->offered;
      if (const auto it = msg->options.find(kDhcpOptPvnServer);
          it != msg->options.end() && it->second.size() == 4) {
        ByteReader r(it->second);
        lease.pvn_supported = true;
        lease.pvn_server = Ipv4Addr(r.u32());
      }
      if (const auto it = msg->options.find(kDhcpOptPvnStandards);
          it != msg->options.end()) {
        lease.pvn_standards = to_string(it->second);
      }
      host_->set_addr(lease.addr);
      finish(lease);
      break;
    }
    case DhcpType::kNak:
      finish(DhcpLease{});
      break;
    default:
      break;
  }
}

void DhcpClient::finish(const DhcpLease& lease) {
  if (!in_progress_) return;
  in_progress_ = false;
  if (timeout_event_ != kInvalidEventId) {
    host_->sim().cancel(timeout_event_);
    timeout_event_ = kInvalidEventId;
  }
  if (cb_) cb_(lease);
}

}  // namespace pvn
