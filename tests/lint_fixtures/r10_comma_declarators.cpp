// R10 fixture: comma-separated declarators inside a parallel lambda are
// lambda locals; a comma *expression* is still a pair of captured writes.
// Lines with violations are asserted by line number in test_rp_lint.cpp —
// keep the layout stable.

#include <cstdint>

template <typename F>
void parallel_for(int64_t, int64_t, int64_t, F&&);

void clean_multi_declarator(float* out, const float* in) {
  // Every name of one declaration statement is a local, not just the first.
  parallel_for(0, 64, 8, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t cb = c * 4, ce = cb + 4, gc = ce - cb;
      const float gm = in[c], bt = gm * 2.0f;
      float m, *pm = &m, v;
      double s = 0.0, sv = 0.0;
      m = gm + bt;
      *pm += 1.0f;
      v = static_cast<float>(gc);
      s += m;
      sv += v;
      out[c] = static_cast<float>(s + sv);
    }
  });
}

void fires_comma_expression() {
  int a = 0, b = 0;
  // A comma expression assigns two captured variables from every lane.
  parallel_for(0, 64, 8, [&](int64_t i0, int64_t i1) {
    a = static_cast<int>(i0), b = static_cast<int>(i1);  // line 33
  });
}
