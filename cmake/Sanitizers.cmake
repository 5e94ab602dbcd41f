# Sanitizer toggles, each gated behind a cache option so the `asan` /
# `tsan` presets are one variable away from any configuration.
#
#   RIP_SANITIZE         AddressSanitizer + UndefinedBehaviorSanitizer,
#                        plus libstdc++'s _GLIBCXX_ASSERTIONS so an
#                        out-of-contract library call (std::clamp with
#                        lo > hi, operator[] past the end) aborts
#   RIP_SANITIZE_THREAD  ThreadSanitizer (for the persistent scheduler
#                        and the parallel/sharded sweep tests)
#
# The two are mutually exclusive — ASan and TSan cannot be linked into
# one binary.

option(RIP_SANITIZE "Enable AddressSanitizer + UndefinedBehaviorSanitizer" OFF)
option(RIP_SANITIZE_THREAD "Enable ThreadSanitizer" OFF)

if(RIP_SANITIZE AND RIP_SANITIZE_THREAD)
  message(FATAL_ERROR "RIP_SANITIZE and RIP_SANITIZE_THREAD are mutually "
                      "exclusive: ASan and TSan cannot coexist")
endif()

if(RIP_SANITIZE)
  add_compile_options(-fsanitize=address,undefined -fno-omit-frame-pointer)
  add_compile_definitions(_GLIBCXX_ASSERTIONS)
  add_link_options(-fsanitize=address,undefined)
endif()

if(RIP_SANITIZE_THREAD)
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
endif()
