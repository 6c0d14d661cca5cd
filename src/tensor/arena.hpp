#pragma once

// Exists only because the end-to-end benchmark (perfbench/main.cpp) names it
// in its provenance record. Tensors live on the plain heap and there is no
// arena engine, so the reported mode is always "off".
namespace rp::mem {

enum class Mode { kOff = 0 };

inline Mode mode() { return Mode::kOff; }
inline const char* mode_name(Mode /*m*/) { return "off"; }

}  // namespace rp::mem
