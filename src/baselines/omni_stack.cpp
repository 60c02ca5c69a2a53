#include "baselines/omni_stack.h"

namespace omni::baselines {

void OmniStack::start() { node_.start(); }

void OmniStack::set_advert_handler(AdvertFn fn) {
  node_.manager().request_context(
      [fn = std::move(fn)](const OmniAddress& source, const Bytes& context) {
        if (fn) fn(source.value, context);
      });
}

void OmniStack::set_data_handler(DataFn fn) {
  node_.manager().request_data(
      [fn = std::move(fn)](const OmniAddress& source, BytesView data) {
        if (fn) fn(source.value, data);
      });
}

void OmniStack::advertise(Bytes info, Duration interval) {
  ContextParams params;
  params.interval = interval;
  if (advert_context_ != kInvalidContext) {
    node_.manager().update_context(advert_context_, params, std::move(info),
                                   nullptr);
    return;
  }
  if (advert_pending_) {
    // The initial add is in flight; remember the newest content and apply
    // it once the context id arrives.
    pending_info_ = std::move(info);
    pending_interval_ = interval;
    return;
  }
  advert_pending_ = true;
  node_.manager().add_context(
      params, std::move(info),
      [this](StatusCode code, const ResponseInfo& response) {
        advert_pending_ = false;
        if (code != StatusCode::kAddContextSuccess) return;
        advert_context_ = response.context_id;
        if (pending_interval_ > Duration::zero()) {
          ContextParams p;
          p.interval = pending_interval_;
          node_.manager().update_context(advert_context_, p,
                                         std::move(pending_info_), nullptr);
          pending_interval_ = Duration::zero();
          pending_info_.clear();
        }
      });
}

void OmniStack::stop_advertising() {
  if (advert_context_ == kInvalidContext) return;
  node_.manager().remove_context(advert_context_, nullptr);
  advert_context_ = kInvalidContext;
}

void OmniStack::send(PeerId dest, Bytes data, SendDoneFn done) {
  node_.manager().send_data(
      {OmniAddress{dest}}, std::move(data),
      [done = std::move(done)](StatusCode code, const ResponseInfo& info) {
        if (!done) return;
        if (code == StatusCode::kSendDataSuccess) {
          done(Status::ok());
        } else {
          done(Status::error(info.failure_description.empty()
                                 ? "send failed"
                                 : info.failure_description));
        }
      });
}

std::vector<D2dStack::PeerId> OmniStack::known_peers() const {
  std::vector<PeerId> out;
  for (OmniAddress a : node_.manager().peer_table().peers()) {
    out.push_back(a.value);
  }
  return out;
}

}  // namespace omni::baselines
