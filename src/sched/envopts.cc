#include "sched/envopts.h"

#include <cstdlib>
#include <cstring>

#include "obs/trace.h"

namespace sit {

sched::Engine env_engine() {
  const char* env = std::getenv("SIT_ENGINE");
  if (env != nullptr && std::strcmp(env, "tree") == 0) {
    return sched::Engine::Tree;
  }
  return sched::Engine::Fused;
}

int env_threads() {
  int t = 1;
  if (const char* env = std::getenv("SIT_THREADS")) t = std::atoi(env);
  return t < 1 ? 1 : t;
}

int env_batch() {
  const char* env = std::getenv("SIT_BATCH");
  if (env == nullptr || std::strcmp(env, "auto") == 0) return -1;
  const int b = std::atoi(env);
  return b < 1 ? 1 : b;
}

bool env_trace() {
  const char* env = std::getenv("SIT_TRACE");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
         std::strcmp(env, "true") == 0;
}

int env_stall_ms() {
  const char* env = std::getenv("SIT_STALL_MS");
  int ms = env != nullptr ? std::atoi(env) : 120000;
  if (ms == 0) ms = 120000;
  return ms;
}

int env_opt_level() {
  const char* env = std::getenv("SIT_OPT");
  if (env == nullptr) return 2;
  const int lvl = std::atoi(env);
  if (lvl < 0) return 0;
  if (lvl > 2) return 2;
  return lvl;
}

std::string env_passes() {
  const char* env = std::getenv("SIT_PASSES");
  return env != nullptr ? env : "";
}

int env_verify() {
  const char* env = std::getenv("SIT_VERIFY");
  if (env == nullptr) return 0;
  if (std::strcmp(env, "each") == 0 || std::strcmp(env, "2") == 0) return 2;
  if (std::strcmp(env, "final") == 0 || std::strcmp(env, "1") == 0 ||
      std::strcmp(env, "on") == 0) {
    return 1;
  }
  return 0;
}

ExecEnv resolve_exec_options() {
  ExecEnv e;
  e.engine = env_engine();
  e.threads = env_threads();
  e.batch = env_batch();
  e.trace = obs::kCompiledIn && env_trace();
  e.stall_ms = env_stall_ms();
  e.opt_level = env_opt_level();
  e.passes = env_passes();
  e.verify = env_verify();
  return e;
}

}  // namespace sit
