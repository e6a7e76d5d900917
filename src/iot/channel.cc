#include "iot/channel.h"

#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace ppdp::iot {

namespace {

/// Frame magic: version-tagged so a future layout can bump the last byte.
constexpr char kEnvelopeMagic[8] = {'P', 'P', 'D', 'P', 'i', 'o', 't', '1'};

void PutWord(std::string* out, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    out->push_back(static_cast<char>((word >> (8 * byte)) & 0xFFu));
  }
}

uint64_t GetWord(std::string_view bytes, size_t offset) {
  uint64_t word = 0;
  for (int byte = 0; byte < 8; ++byte) {
    word |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + static_cast<size_t>(byte)]))
            << (8 * byte);
  }
  return word;
}

}  // namespace

uint64_t EnvelopeChecksum(const Envelope& envelope) {
  uint64_t epsilon_bits = 0;
  static_assert(sizeof(envelope.reading.epsilon) == sizeof(epsilon_bits));
  std::memcpy(&epsilon_bits, &envelope.reading.epsilon, sizeof(epsilon_bits));
  // FNV-1a over the five payload words in their little-endian wire order,
  // so the checksum does not depend on the host's byte order.
  const uint64_t words[] = {envelope.device, envelope.seq,
                            static_cast<uint64_t>(envelope.reading.sensor),
                            static_cast<uint64_t>(envelope.reading.value), epsilon_bits};
  unsigned char bytes[sizeof(words)];
  for (size_t i = 0; i < sizeof(bytes); ++i) {
    bytes[i] = static_cast<unsigned char>(words[i / 8] >> (8 * (i % 8)));
  }
  return Fnv1a64(bytes, sizeof(bytes));
}

std::string EncodeEnvelope(const Envelope& envelope) {
  std::string wire(kEnvelopeMagic, sizeof(kEnvelopeMagic));
  wire.reserve(kEnvelopeWireBytes);
  PutWord(&wire, envelope.device);
  PutWord(&wire, envelope.seq);
  PutWord(&wire, static_cast<uint64_t>(envelope.reading.sensor));
  PutWord(&wire, static_cast<uint64_t>(envelope.reading.value));
  uint64_t epsilon_bits = 0;
  std::memcpy(&epsilon_bits, &envelope.reading.epsilon, sizeof(epsilon_bits));
  PutWord(&wire, epsilon_bits);
  PutWord(&wire, envelope.checksum);
  return wire;
}

Result<Envelope> DecodeEnvelope(std::string_view bytes) {
  if (bytes.size() != kEnvelopeWireBytes) {
    return Status::InvalidArgument("envelope frame must be " + std::to_string(kEnvelopeWireBytes) +
                                   " bytes, got " + std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kEnvelopeMagic, sizeof(kEnvelopeMagic)) != 0) {
    return Status::InvalidArgument("bad envelope magic");
  }
  Envelope envelope;
  envelope.device = GetWord(bytes, 8);
  envelope.seq = GetWord(bytes, 16);
  envelope.reading.sensor = static_cast<size_t>(GetWord(bytes, 24));
  envelope.reading.value = static_cast<size_t>(GetWord(bytes, 32));
  const uint64_t epsilon_bits = GetWord(bytes, 40);
  std::memcpy(&envelope.reading.epsilon, &epsilon_bits, sizeof(epsilon_bits));
  if (!std::isfinite(envelope.reading.epsilon) || envelope.reading.epsilon < 0.0) {
    return Status::InvalidArgument("envelope epsilon must be finite and non-negative");
  }
  envelope.checksum = GetWord(bytes, 48);
  return envelope;
}

Table ChannelReport::Summary() const {
  Table table({"field", "value"});
  table.AddRow({"sent", std::to_string(sent)});
  table.AddRow({"delivered", std::to_string(delivered)});
  table.AddRow({"attempts", std::to_string(attempts)});
  table.AddRow({"retries", std::to_string(retries)});
  table.AddRow({"drops", std::to_string(drops)});
  table.AddRow({"duplicates", std::to_string(duplicates)});
  table.AddRow({"corruptions", std::to_string(corruptions)});
  table.AddRow({"checksum_rejects", std::to_string(checksum_rejects)});
  table.AddRow({"dedup_hits", std::to_string(dedup_hits)});
  table.AddRow({"gave_up", std::to_string(gave_up)});
  table.AddRow({"observed_loss", Table::FormatDouble(ObservedLossRate(), 4)});
  table.AddRow({"virtual_ms", Table::FormatDouble(virtual_ms, 3)});
  return table;
}

ResilientChannel::ResilientChannel(AggregationServer* server, fault::RetryPolicy policy,
                                   uint64_t seed, uint64_t device)
    : server_(server), policy_(std::move(policy)), rng_(seed), device_(device) {
  PPDP_CHECK(server_ != nullptr) << "ResilientChannel needs an aggregation server";
  Status valid = policy_.Validate();
  PPDP_CHECK(valid.ok()) << valid.ToString();
}

bool ResilientChannel::Deliver(std::string_view wire) {
  // A frame that does not decode (corrupted magic/epsilon bits) and a frame
  // whose payload mismatches its checksum are the same event from the
  // transport's perspective: a damaged arrival, refused so the sender
  // retransmits the intact bytes.
  Result<Envelope> decoded = DecodeEnvelope(wire);
  if (!decoded.ok() || EnvelopeChecksum(*decoded) != decoded->checksum) {
    ++report_.checksum_rejects;
    return false;  // nack: sender retransmits the intact bytes
  }
  const Envelope& envelope = *decoded;
  if (seen_.count(envelope.seq) > 0) {
    static obs::Counter& dedup = obs::MetricsRegistry::Global().counter("channel.dedup_hits");
    dedup.Increment();
    ++report_.dedup_hits;
    return true;  // redundant copy: ack without re-ingesting
  }
  Status ingested = server_->Ingest(envelope.reading);
  if (!ingested.ok()) {
    // A deterministic rejection (bad sensor, mixed epsilons, ...) — record
    // it and ack so the sender stops retrying a hopeless payload.
    ingest_error_ = ingested.Annotate("ResilientChannel receiver");
    return true;
  }
  seen_.insert(envelope.seq);
  ++report_.delivered;
  return true;
}

bool ResilientChannel::TransmitOnce(const Envelope& envelope) {
  ++report_.attempts;
  fault::FaultDecision decision = PPDP_FAULT_POINT("iot.send", fault::kMaskAll);
  if (decision.delay()) {
    clock_ms_ += decision.delay_ms;
    report_.virtual_ms += decision.delay_ms;
  }
  if (decision.drop()) {
    ++report_.drops;
    return false;  // lost in flight; no ack will arrive
  }
  std::string wire = EncodeEnvelope(envelope);
  if (decision.corrupt()) {
    // Bit flips land anywhere in the frame — magic, payload, or the
    // checksum itself; the receiver must refuse all of them.
    ++report_.corruptions;
    const size_t bit = static_cast<size_t>(decision.corrupt_bit) % (8 * wire.size());
    wire[bit / 8] = static_cast<char>(static_cast<uint8_t>(wire[bit / 8]) ^ (1u << (bit % 8)));
  }
  bool acked = Deliver(wire);
  if (decision.duplicate()) {
    // The network replays the same bytes; the receiver's dedup (or the
    // checksum) must keep the second copy from biasing the estimate.
    ++report_.duplicates;
    (void)Deliver(wire);
  }
  return acked;
}

Status ResilientChannel::Send(const PerturbedReading& reading) {
  obs::TraceSpan span("channel.send");
  static obs::Counter& retries_metric = obs::MetricsRegistry::Global().counter("channel.retries");
  static obs::Counter& gave_up_metric = obs::MetricsRegistry::Global().counter("channel.gave_up");
  static obs::Counter& attempts_metric =
      obs::MetricsRegistry::Global().counter("channel.attempts");
  static obs::Gauge& in_flight_gauge = obs::MetricsRegistry::Global().gauge("channel.in_flight");
  static obs::Gauge& retransmits_gauge =
      obs::MetricsRegistry::Global().gauge("channel.retransmits");
  static obs::Gauge& dedup_gauge = obs::MetricsRegistry::Global().gauge("channel.dedup_hits");
  static obs::Gauge& virtual_ms_gauge =
      obs::MetricsRegistry::Global().gauge("channel.virtual_ms");

  // Live in-flight count across every channel in the process: +1 while this
  // reading is unacknowledged, decremented on every exit path below. The
  // guard also refreshes the last-write-wins transport gauges so a scrape
  // between Send calls sees this channel's running totals.
  in_flight_gauge.Add(1.0);
  struct InFlightGuard {
    obs::Gauge& in_flight;
    obs::Gauge& retransmits;
    obs::Gauge& dedup;
    obs::Gauge& virtual_ms;
    const ResilientChannel* channel;
    ~InFlightGuard() {
      in_flight.Add(-1.0);
      retransmits.Set(static_cast<double>(channel->report().retries));
      dedup.Set(static_cast<double>(channel->report().dedup_hits));
      virtual_ms.Set(channel->VirtualNowMs());
    }
  } in_flight{in_flight_gauge, retransmits_gauge, dedup_gauge, virtual_ms_gauge, this};
  attempts_metric.Increment();

  Envelope envelope;
  envelope.device = device_;
  envelope.seq = next_seq_++;
  envelope.reading = reading;
  envelope.checksum = EnvelopeChecksum(envelope);
  ++report_.sent;

  ingest_error_ = Status::Ok();
  const double start_ms = clock_ms_;
  for (uint64_t attempt = 0;; ++attempt) {
    if (!policy_.AllowsAttempt(attempt, clock_ms_ - start_ms)) {
      ++report_.gave_up;
      gave_up_metric.Increment();
      obs::FlightRecorder::Global().Record(
          {0.0, "retry", "WARN", "iot.send",
           "gave up on seq " + std::to_string(envelope.seq) + " after " +
               std::to_string(attempt) + " attempts, " +
               Table::FormatDouble(clock_ms_ - start_ms, 3) + " virtual ms"});
      PPDP_LOG(WARN) << "reading lost: retry budget exhausted"
                     << obs::Field("seq", envelope.seq) << obs::Field("attempts", attempt)
                     << obs::Field("elapsed_ms", clock_ms_ - start_ms);
      if (attempt >= policy_.max_attempts) {
        return Status::Unavailable("reading " + std::to_string(envelope.seq) +
                                   " unacknowledged after " + std::to_string(attempt) +
                                   " attempts");
      }
      return Status::DeadlineExceeded("reading " + std::to_string(envelope.seq) +
                                      " missed its delivery deadline");
    }
    if (attempt > 0) {
      ++report_.retries;
      retries_metric.Increment();
      obs::FlightRecorder::Global().Record(
          {0.0, "retry", "INFO", "iot.send",
           "retransmit seq " + std::to_string(envelope.seq) + " attempt " +
               std::to_string(attempt + 1)});
    }
    if (TransmitOnce(envelope)) {
      // Acked — but surface a deterministic server rejection to the caller.
      return ingest_error_;
    }
    const double backoff = policy_.BackoffMs(attempt, rng_);
    clock_ms_ += backoff;
    report_.virtual_ms += backoff;
  }
}

}  // namespace ppdp::iot
