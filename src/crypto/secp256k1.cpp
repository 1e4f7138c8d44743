#include "crypto/secp256k1.hpp"

#include <cassert>
#include <memory>
#include <vector>

namespace bng::crypto {

namespace {

// p = 2^256 - 2^32 - 977
const U256 kP = U256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
// n = group order
const U256 kN = U256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
// 2^256 mod p = 2^32 + 977
constexpr std::uint64_t kC = 0x1000003d1ull;
// 2^256 mod n = 0x1_4551231950b75fc4_402da1732fc9bebf (129 bits); its top
// limb is 1.
constexpr std::uint64_t kNC0 = 0x402da1732fc9bebfull;
constexpr std::uint64_t kNC1 = 0x4551231950b75fc4ull;

const U256 kGx = U256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const U256 kGy = U256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

/// Reduce a 512-bit product modulo p using p's special form:
/// hi*2^256 + lo == hi*(2^32+977) + lo (mod p).
U256 reduce512(const U512& t) {
  // First fold: acc (5 limbs) = lo + hi * kC.
  std::uint64_t acc[5] = {};
  {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur = static_cast<unsigned __int128>(t.limb[4 + i]) * kC +
                              t.limb[i] + carry;
      acc[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    acc[4] = static_cast<std::uint64_t>(carry);
  }
  // Second fold: r = acc[0..3] + acc[4] * kC.
  U256 r;
  {
    unsigned __int128 cur = static_cast<unsigned __int128>(acc[4]) * kC + acc[0];
    r.limb[0] = static_cast<std::uint64_t>(cur);
    unsigned __int128 carry = cur >> 64;
    for (int i = 1; i < 4; ++i) {
      cur = static_cast<unsigned __int128>(acc[i]) + carry;
      r.limb[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    // Final possible carry of 1: fold once more (adds kC).
    if (carry) {
      bool c2;
      r = U256::add(r, U256(kC), c2);
      // c2 cannot propagate again: r was < 2^64 in the low limbs after carry.
      assert(!c2);
    }
  }
  while (r >= kP) {
    bool borrow;
    r = U256::sub(r, kP, borrow);
  }
  return r;
}

}  // namespace

const U256& field_p() { return kP; }
const U256& order_n() { return kN; }

U256 fe_add(const U256& a, const U256& b) {
  bool carry;
  U256 r = U256::add(a, b, carry);
  if (carry || r >= kP) {
    bool borrow;
    r = U256::sub(r, kP, borrow);
  }
  return r;
}

U256 fe_sub(const U256& a, const U256& b) {
  bool borrow;
  U256 r = U256::sub(a, b, borrow);
  if (borrow) {
    bool carry;
    r = U256::add(r, kP, carry);
  }
  return r;
}

U256 fe_mul(const U256& a, const U256& b) { return reduce512(U256::mul_wide(a, b)); }

U256 fe_sqr(const U256& a) { return fe_mul(a, a); }

U256 fe_neg(const U256& a) {
  if (a.is_zero()) return a;
  bool borrow;
  return U256::sub(kP, a, borrow);
}

U256 fe_pow(const U256& a, const U256& e) {
  U256 result(1);
  U256 base = a;
  for (int i = 0; i < 256; ++i) {
    if (e.bit(i)) result = fe_mul(result, base);
    base = fe_sqr(base);
  }
  return result;
}

U256 fe_inv(const U256& a) {
  assert(!a.is_zero());
  bool borrow;
  U256 pm2 = U256::sub(kP, U256(2), borrow);
  return fe_pow(a, pm2);
}

std::optional<U256> fe_sqrt(const U256& a) {
  if (a.is_zero()) return U256(0);
  // p ≡ 3 (mod 4): the candidate root is a^((p+1)/4). p+1 fits in 256 bits.
  bool carry;
  const U256 exp = U256::add(kP, U256(1), carry).shr(2);
  assert(!carry);
  U256 root = fe_pow(a, exp);
  if (fe_sqr(root) != a) return std::nullopt;
  return root;
}

std::optional<AffinePoint> lift_x(const U256& x, bool odd_y) {
  if (!(x < kP)) return std::nullopt;
  U256 rhs = fe_add(fe_mul(fe_sqr(x), x), U256(7));
  auto y = fe_sqrt(rhs);
  if (!y) return std::nullopt;
  AffinePoint p;
  p.infinity = false;
  p.x = x;
  p.y = (y->is_odd() == odd_y) ? *y : fe_neg(*y);
  return p;
}

U256 reduce_n(const U512& t) {
  // Fold hi*2^256 + lo == hi*c + lo (mod n), c = 2^256 - n, until the high
  // half is zero: 512 -> 386 -> 260 -> 257 -> 256 bits at most. The value
  // then lies below 2^256 < 2n, so one conditional subtraction finishes.
  std::array<std::uint64_t, 8> v = t.limb;
  for (;;) {
    int top = 7;
    while (top >= 4 && v[top] == 0) --top;
    if (top < 4) break;
    std::array<std::uint64_t, 8> r{v[0], v[1], v[2], v[3], 0, 0, 0, 0};
    for (int i = 4; i <= top; ++i) {
      // r += v[i] * c * 2^(64 * (i - 4))
      const int o = i - 4;
      unsigned __int128 cur = static_cast<unsigned __int128>(v[i]) * kNC0 + r[o];
      r[o] = static_cast<std::uint64_t>(cur);
      cur = static_cast<unsigned __int128>(v[i]) * kNC1 + r[o + 1] + (cur >> 64);
      r[o + 1] = static_cast<std::uint64_t>(cur);
      cur = static_cast<unsigned __int128>(v[i]) + r[o + 2] + (cur >> 64);
      r[o + 2] = static_cast<std::uint64_t>(cur);
      for (int j = o + 3; (cur >> 64) != 0 && j < 8; ++j) {
        cur = static_cast<unsigned __int128>(r[j]) + (cur >> 64);
        r[j] = static_cast<std::uint64_t>(cur);
      }
    }
    v = r;
  }
  U256 out(v[0], v[1], v[2], v[3]);
  if (out >= kN) {
    bool borrow;
    out = U256::sub(out, kN, borrow);
  }
  return out;
}

U256 sc_reduce(const U256& a) { return reduce_n(U512::from_u256(a)); }

U256 sc_add(const U256& a, const U256& b) {
  bool carry;
  U256 r = U256::add(a, b, carry);
  U512 wide = U512::from_u256(r);
  wide.limb[4] = carry ? 1 : 0;
  return reduce_n(wide);
}

U256 sc_mul(const U256& a, const U256& b) { return reduce_n(U256::mul_wide(a, b)); }

U256 sc_neg(const U256& a) {
  const U256 r = sc_reduce(a);
  if (r.is_zero()) return r;
  bool borrow;
  return U256::sub(kN, r, borrow);
}

U256 sc_inv(const U256& a) {
  assert(!sc_reduce(a).is_zero());
  bool borrow;
  U256 nm2 = U256::sub(kN, U256(2), borrow);
  // Square-and-multiply mod n (Fermat: a^(n-2)).
  U256 result(1);
  U256 base = sc_reduce(a);
  for (int i = 0; i < 256; ++i) {
    if (nm2.bit(i)) result = sc_mul(result, base);
    base = sc_mul(base, base);
  }
  return result;
}

bool AffinePoint::valid() const {
  if (infinity) return true;
  if (x >= kP || y >= kP) return false;
  U256 lhs = fe_sqr(y);
  U256 rhs = fe_add(fe_mul(fe_sqr(x), x), U256(7));
  return lhs == rhs;
}

JacobianPoint JacobianPoint::infinity() { return {U256(1), U256(1), U256(0)}; }

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return infinity();
  return {p.x, p.y, U256(1)};
}

AffinePoint JacobianPoint::to_affine() const {
  if (is_infinity()) return {};
  U256 zinv = fe_inv(Z);
  U256 zinv2 = fe_sqr(zinv);
  AffinePoint p;
  p.infinity = false;
  p.x = fe_mul(X, zinv2);
  p.y = fe_mul(Y, fe_mul(zinv2, zinv));
  return p;
}

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.Y.is_zero()) return JacobianPoint::infinity();
  // dbl-2009-l formulas for a = 0.
  U256 A = fe_sqr(p.X);
  U256 B = fe_sqr(p.Y);
  U256 C = fe_sqr(B);
  U256 t = fe_sub(fe_sqr(fe_add(p.X, B)), fe_add(A, C));
  U256 D = fe_add(t, t);
  U256 E = fe_add(fe_add(A, A), A);
  U256 F = fe_sqr(E);
  JacobianPoint r;
  r.X = fe_sub(F, fe_add(D, D));
  U256 C8 = fe_add(C, C);
  C8 = fe_add(C8, C8);
  C8 = fe_add(C8, C8);
  r.Y = fe_sub(fe_mul(E, fe_sub(D, r.X)), C8);
  U256 YZ = fe_mul(p.Y, p.Z);
  r.Z = fe_add(YZ, YZ);
  return r;
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  U256 Z1Z1 = fe_sqr(p.Z);
  U256 Z2Z2 = fe_sqr(q.Z);
  U256 U1 = fe_mul(p.X, Z2Z2);
  U256 U2 = fe_mul(q.X, Z1Z1);
  U256 S1 = fe_mul(p.Y, fe_mul(Z2Z2, q.Z));
  U256 S2 = fe_mul(q.Y, fe_mul(Z1Z1, p.Z));
  if (U1 == U2) {
    if (S1 == S2) return point_double(p);
    return JacobianPoint::infinity();
  }
  U256 H = fe_sub(U2, U1);
  U256 R = fe_sub(S2, S1);
  U256 H2 = fe_sqr(H);
  U256 H3 = fe_mul(H, H2);
  U256 U1H2 = fe_mul(U1, H2);
  JacobianPoint r;
  r.X = fe_sub(fe_sub(fe_sqr(R), H3), fe_add(U1H2, U1H2));
  r.Y = fe_sub(fe_mul(R, fe_sub(U1H2, r.X)), fe_mul(S1, H3));
  r.Z = fe_mul(fe_mul(p.Z, q.Z), H);
  return r;
}

namespace {

/// p + (x2, y2, 1): mixed Jacobian + affine addition (8M + 3S). p must not
/// be infinity. Same result as point_add with Z2 = 1.
JacobianPoint add_mixed(const JacobianPoint& p, const U256& x2, const U256& y2) {
  U256 Z1Z1 = fe_sqr(p.Z);
  U256 U2 = fe_mul(x2, Z1Z1);
  U256 S2 = fe_mul(y2, fe_mul(Z1Z1, p.Z));
  if (p.X == U2) {
    if (p.Y == S2) return point_double(p);
    return JacobianPoint::infinity();
  }
  U256 H = fe_sub(U2, p.X);
  U256 R = fe_sub(S2, p.Y);
  U256 H2 = fe_sqr(H);
  U256 H3 = fe_mul(H, H2);
  U256 U1H2 = fe_mul(p.X, H2);
  JacobianPoint r;
  r.X = fe_sub(fe_sub(fe_sqr(R), H3), fe_add(U1H2, U1H2));
  r.Y = fe_sub(fe_mul(R, fe_sub(U1H2, r.X)), fe_mul(p.Y, H3));
  r.Z = fe_mul(p.Z, H);
  return r;
}

/// Fixed-base table for k*G: entry [i][j - 1] holds j * 16^i * G in affine
/// form, one row per 4-bit digit of a 256-bit scalar and one column per
/// non-zero digit value: 64 x 15 x 64 bytes = 60 KB.
struct BaseEntry {
  U256 x;
  U256 y;
};
using BaseTable = std::array<std::array<BaseEntry, 15>, 64>;

std::unique_ptr<const BaseTable> build_base_table() {
  std::vector<JacobianPoint> jac;
  jac.reserve(64 * 15);
  JacobianPoint base = JacobianPoint::from_affine(generator());
  for (int i = 0; i < 64; ++i) {
    JacobianPoint acc = base;
    for (int j = 1; j <= 15; ++j) {
      jac.push_back(acc);
      acc = point_add(acc, base);
    }
    base = acc;  // 16 * base
  }
  // One batch inversion (Montgomery's trick) normalises every Z at once.
  std::vector<U256> prefix(jac.size());
  U256 run(1);
  for (std::size_t i = 0; i < jac.size(); ++i) {
    prefix[i] = run;
    run = fe_mul(run, jac[i].Z);
  }
  U256 inv = fe_inv(run);
  auto table = std::make_unique<BaseTable>();
  for (std::size_t i = jac.size(); i-- > 0;) {
    const U256 zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, jac[i].Z);
    const U256 zinv2 = fe_sqr(zinv);
    (*table)[i / 15][i % 15] = {fe_mul(jac[i].X, zinv2), fe_mul(jac[i].Y, fe_mul(zinv2, zinv))};
  }
  return table;
}

/// Built on the first base-point multiply, never at static-init time: a
/// process that neither signs nor derives a key pays nothing.
const BaseTable& base_table() {
  static const std::unique_ptr<const BaseTable> table = build_base_table();
  return *table;
}

}  // namespace

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return JacobianPoint::from_affine(q);
  return add_mixed(p, q.x, q.y);
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  U256 scalar = sc_reduce(k);
  JacobianPoint acc = JacobianPoint::infinity();
  int bits = scalar.bit_length();
  for (int i = bits - 1; i >= 0; --i) {
    acc = point_double(acc);
    if (scalar.bit(i)) acc = point_add_affine(acc, p);
  }
  return acc;
}

JacobianPoint scalar_mul_base(const U256& k) {
  const U256 scalar = sc_reduce(k);
  if (scalar.is_zero()) return JacobianPoint::infinity();
  const BaseTable& table = base_table();
  JacobianPoint acc = JacobianPoint::infinity();
  for (int i = 0; i < 64; ++i) {
    const unsigned digit = (scalar.limb[i / 16] >> (4 * (i % 16))) & 0xf;
    if (digit == 0) continue;
    const BaseEntry& e = table[i][digit - 1];
    acc = acc.is_infinity() ? JacobianPoint{e.x, e.y, U256(1)} : add_mixed(acc, e.x, e.y);
  }
  return acc;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p) {
  U256 a = sc_reduce(u1);
  U256 b = sc_reduce(u2);
  const AffinePoint& G = generator();
  JacobianPoint GP = point_add_affine(JacobianPoint::from_affine(G), p);
  JacobianPoint acc = JacobianPoint::infinity();
  int bits = std::max(a.bit_length(), b.bit_length());
  for (int i = bits - 1; i >= 0; --i) {
    acc = point_double(acc);
    bool ba = a.bit(i), bb = b.bit(i);
    if (ba && bb)
      acc = point_add(acc, GP);
    else if (ba)
      acc = point_add_affine(acc, G);
    else if (bb)
      acc = point_add_affine(acc, p);
  }
  return acc;
}

}  // namespace bng::crypto
