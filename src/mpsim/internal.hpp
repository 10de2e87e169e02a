// Internal plumbing shared between comm.cpp and runtime.cpp. Not part of
// the public API.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "mpsim/barrier.hpp"

namespace drcm::mps {

class CommContext;
class BarrierRegistry;

std::shared_ptr<CommContext> make_comm_context(
    int size, const std::shared_ptr<BarrierRegistry>& registry);

/// Every barrier created through the registry (the world communicator's
/// and every split's) waits under `policy`.
std::shared_ptr<BarrierRegistry> make_barrier_registry(WaitPolicy policy);
void poison_all_barriers(BarrierRegistry& registry);

/// Arm the barrier watchdog: any barrier that stays incomplete for `seconds`
/// wall-clock poisons itself and throws WatchdogTimeoutError carrying
/// `diagnostic()` (the runtime's per-rank last-entered table). Must be called
/// before rank threads start; 0 disables.
void set_watchdog(BarrierRegistry& registry, double seconds,
                  std::function<std::string()> diagnostic);

}  // namespace drcm::mps
