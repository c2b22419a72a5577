#include "obs/trace.h"

namespace sit::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::FireBegin: return "fire-begin";
    case EventKind::FireEnd: return "fire-end";
    case EventKind::WaitBegin: return "wait-begin";
    case EventKind::WaitEnd: return "wait-end";
    case EventKind::PushBatch: return "push-batch";
    case EventKind::PopBatch: return "pop-batch";
    case EventKind::MessageSend: return "message-send";
    case EventKind::MessageDeliver: return "message-deliver";
    case EventKind::Phase: return "phase";
  }
  return "?";
}

const char* to_string(WaitKind k) {
  switch (k) {
    case WaitKind::Input: return "input";
    case WaitKind::Space: return "space";
    case WaitKind::Window: return "window";
  }
  return "?";
}

const char* to_string(PhaseId p) {
  switch (p) {
    case PhaseId::Init: return "init";
    case PhaseId::Steady: return "steady";
  }
  return "?";
}

}  // namespace sit::obs
