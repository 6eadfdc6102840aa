#include "verify/node_client.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/serde.hpp"

namespace spider::verify {

using proto::NodeFrameType;
using transport::PeerId;

NodeClient::NodeClient(transport::Endpoint& endpoint, Step step)
    : endpoint_(endpoint), step_(std::move(step)) {
  endpoint_.set_control_handler(
      [this](PeerId, const proto::NodeFrame& frame) { handle_control(frame); });
}

void NodeClient::handle_control(const proto::NodeFrame& frame) {
  try {
    switch (frame.type) {
      case NodeFrameType::kStats:
        stats_ = proto::StatsFrame::decode(frame.body);
        return;
      case NodeFrameType::kCommitNotify:
        last_commit_ = Commit{proto::SpiderCommit::decode(frame.body), endpoint_.now()};
        return;
      case NodeFrameType::kProofBundle: {
        auto bundle = proto::ProofBundleFrame::decode(frame.body);
        if (in_session_) bundles_.push_back(std::move(bundle));
        return;
      }
      case NodeFrameType::kCheckResult: {
        auto result = proto::CheckResultFrame::decode(frame.body);
        if (in_session_) results_.push_back(std::move(result));
        return;
      }
      default:
        break;
    }
  } catch (const util::DecodeError&) {
  }
  ++frames_dropped_;
  SPIDER_OBS_COUNT("node_client/frames_dropped", 1);
}

bool NodeClient::wait_until(const std::function<bool()>& done, transport::Time timeout) {
  const transport::Time deadline = endpoint_.now() + timeout;
  while (!done()) {
    if (endpoint_.now() >= deadline) return false;
    step_();
  }
  return true;
}

bool NodeClient::send(PeerId to, NodeFrameType type, util::ByteSpan body) {
  return wait_until([&] { return endpoint_.send_control(to, type, body); }, kSendRetry);
}

bool NodeClient::subscribe(PeerId recorder) {
  return send(recorder, NodeFrameType::kSubscribeCommits, {});
}

std::vector<util::Bytes> NodeClient::inject_frames(const std::vector<bgp::Update>& updates) {
  std::vector<util::Bytes> frames;
  frames.reserve(updates.size());
  for (const bgp::Update& update : updates) {
    const proto::InjectFrame frame{
        .seq = next_seq_++, .sent_at = endpoint_.now(), .update = update};
    frames.push_back(frame.encode());
  }
  return frames;
}

bool NodeClient::inject(PeerId recorder, const std::vector<util::Bytes>& frames) {
  return std::all_of(frames.begin(), frames.end(), [&](const util::Bytes& frame) {
    return send(recorder, NodeFrameType::kInject, frame);
  });
}

std::optional<proto::StatsFrame> NodeClient::barrier(PeerId peer) {
  const std::uint64_t token = next_token_++;
  util::ByteWriter w;
  w.u64(token);
  if (!send(peer, NodeFrameType::kStatsRequest, w.take()) ||
      !wait_until([&] { return stats_ && stats_->token == token; }, kReplyTimeout)) {
    return std::nullopt;
  }
  return stats_;
}

std::optional<NodeClient::Commit> NodeClient::await_commit() {
  last_commit_.reset();
  if (!wait_until([&] { return last_commit_.has_value(); }, kReplyTimeout)) return std::nullopt;
  return last_commit_;
}

std::optional<std::vector<NodeClient::Round>> NodeClient::verify(std::uint32_t elector,
                                                                 proto::Time commit_time,
                                                                 PeerId proofgen, PeerId checker) {
  in_session_ = true;
  auto session = [&]() -> std::optional<std::vector<Round>> {
    std::uint32_t requested = 0;
    auto request_next = [&] {
      const proto::ProofRequestFrame request{.elector = elector, .commit_time = commit_time,
                                             .consumer = checker, .round = requested++,
                                             .round_count = kRounds};
      return send(proofgen, NodeFrameType::kProofRequest, request.encode());
    };
    while (requested < kWindow) {
      if (!request_next()) return std::nullopt;
    }
    // Both nodes answer in arrival order, so the i-th bundle is round i and
    // the i-th result checks the i-th relayed bundle.  Replies beyond the
    // session's rounds are discarded.
    std::vector<Round> rounds;
    std::size_t checked = 0;
    while (checked < kRounds) {
      if (!wait_until([&] { return !bundles_.empty() || !results_.empty(); }, kReplyTimeout)) {
        return std::nullopt;
      }
      for (; !bundles_.empty(); bundles_.pop_front()) {
        if (rounds.size() == kRounds) continue;
        rounds.push_back({std::move(bundles_.front()), {}});
        if (!send(checker, NodeFrameType::kCheckRequest, rounds.back().bundle.encode()) ||
            (requested < kRounds && !request_next())) {
          return std::nullopt;
        }
      }
      for (; !results_.empty(); results_.pop_front()) {
        if (checked < rounds.size()) rounds[checked++].result = std::move(results_.front());
      }
    }
    return rounds;
  }();
  in_session_ = false;
  bundles_.clear();
  results_.clear();
  return session;
}

}  // namespace spider::verify
