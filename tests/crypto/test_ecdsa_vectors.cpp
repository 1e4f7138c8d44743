// Known-answer vectors for ECDSA over secp256k1, plus differential checks of
// the scalar (mod n) layer and of the fixed-base k·G path against the
// generic ones.
//
// The compressed public keys and (r, s) pairs below were produced by the
// original bit-serial implementation (reduction mod n by U512::mod, k·G by
// plain double-and-add) and cross-checked against an independent
// big-integer model of the same nonce rule. Signatures and keys feed block
// ids and determinism digests, so faster arithmetic must reproduce them
// byte for byte.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/ecdsa.hpp"

namespace bng::crypto {
namespace {

/// NG leader keys exactly as NgNode derives them: from_seed(0x6e670000 + id).
struct NgVector {
  NodeId id;
  const char* msg;
  const char* pubkey;  ///< compressed
  const char* r;
  const char* s;
};

const NgVector kNgVectors[] = {
    {0, "2642b3a46b6e08f48540f654a4615a2b81f125d07b91b2c9a9036f8576077b1c",
     "0253d4da65836cd4816efae1f27261ac2df8c4d6cd296c47c8a92217f03beeb596",
     "a2162f44222d06dcae57717f177d7ce2bd6eaeb3a564a52fe8055ad237c90f1c",
     "7f1832b34b43d2fe5ea440314075d4106183ff1247b088d27adadcad0131b09b"},
    {1, "8248b6cfdcc5a3ed9329f45baf7ae9c9e43c57b927614f55793719384ce0e652",
     "026b91dde2e1c7324521dc86075b0e21a7331946108d30bb66dba543861e7f8a35",
     "11f725be57b95870753e1087701abe3da43ced43b0c3434eb69f76c2237bf63e",
     "19a0cdd92af559c6c9305e75771a73873759e7a52e5db51fe6ee88a3ff51bcf5"},
    {2, "b0d9af919d2fd21b07ff75b6629ea419f2b5b12e61d66d959eccf2add0d9d00b",
     "027ed11fa8e28b03193a23a79838995f5880dc4cb9ce0f9ed8abb8b2b73c1a510e",
     "ca8123119722ff3d5825d0bf88415bf7f79292f57f49c9322fcad8e00bf6013a",
     "0ed62a81c8f6aca402e7d16e082034a9ac2f4fbd9b33986d60eefe1b2f12963a"},
    {3, "8b0f2f20a0fd0c7d218a333f01f08c10cab22219d231d1a91ba9eb89a634645f",
     "023266136877dde33b6646fa7aa81356b734d98e041100ce8d085e68a142c1e44d",
     "c17af49d356c9ce4d55ed10f53aa2e578d850e97582c27660d0051c3c6911d90",
     "4a5dc218c15d642cd909b899f870807e24023c36a32eee8f19d4aa0fdd125660"},
    {4, "fb3517e0f46c5347d80b5ed63bedef52f6a510d75d64257ba0e8f69cdff2a1d4",
     "02cc49478ed5aff6950e1863d38aca4e937c1cf47f3a2092e09a9f30be302e2794",
     "0a960340f63b95519553805fe09f236cff27b9d8d4db41e34dc0100b22e0fe0f",
     "7b2c05b1519a8d552dad1f5fbcacdaed5cd9d33c9f969e666d4c08d47dd59bb5"},
    {5, "cc2962fddc50996f2d008bdb646f8c6cc649c7cd346d3426155432d08fbc9858",
     "02724607dc51c72b7d144020bfd91ccc15b8161e6e9a0e9aacf94209fcc927be28",
     "9f05ee26cbbf1f824168f160a7241eabdaab6f549f9a59d6e3e50d9c69818b6b",
     "11f52326bd4b2f105af1bd34fe102cecd8185d068b4ec2db728db8e8c2459472"},
    {6, "cdaa0996287d461b4e8db017756513f692a90fbea6823bc22eb7e982e54483ce",
     "0380d7298922e839795160f6a7bdaa5a69984ddc85677a9c8bece1fa40d164d2fd",
     "ed839f875e63e9276b7325f8a30518aabbd1b17512ba36c30c501f7f74011492",
     "568a8672f5c1ea7dbe48b89ad52b1c570c3f66854544a58106929dd09ced69e6"},
    {7, "b44dac82809e1e1bd3241ba16cc2aad4041e0d4ff171ad3e5739a29f140712dd",
     "026b969fca1c5f89fbbf2364fcf4bfb858a63c199e5fee8535d1dbd5d7fb6b74c9",
     "8087fa65cfae0a791705c7eea887366089b5b1d9b35a40134243e85bde283dba",
     "0d7defbeaca29bd0f37695b72056f0c34e01a69b93e082e2ad2a05df88fddd76"},
    {8, "89518419af7bd731bdf8d862ab276014103cecc1cc32e3f21413312c098166b2",
     "026a97475012bb3f59c9200d8ff8904af45f482814489d5dc376d5376ac938ad9f",
     "27417f84d689ca0dfe4d66ce7761c74c55cbf69255882753224ca688f30ffadd",
     "186a3a909c1155d4fa5fc57984e66d97cc86e422d7ec4f2eed84005a598cc4dd"},
    {9, "680bea2fc707a197be01ebf4c93420219e95ef42ab9058b45c07edb454b7d9e7",
     "03de1924731217d43393da3364a9854b8f302bcf4a879cf8c2587fb3b2c7f60c57",
     "50bb541ce9b754683c5b3ba2b9244c90a39675a831ef88382a24047d8e7b2404",
     "7de0a1b01eb52ee0fd8b248bd66fcf43aa1e1bd4096302fc6b5e9d5e91619182"},
    {10, "bb91969a5cec3fbd206d5a9060792eb7d8d1dc7df89698a52570d6609c2246a3",
     "024cc7e52efb89076664beaa3cf01727410afa9363adcc1418cb7c7a586d1b557c",
     "16df1687d48c3cb104eeeee7c05307d165d4d65c3b9a3d776762a520c6221192",
     "129eaf74608cba61fe9db82fde549faf607b19689a26323605516a365c96e342"},
    {11, "48f4681b4da2ab884b1d8552766ed7ee5d236e74ed72626c029aa2ccd617b730",
     "036eed05ac5aec7c045e2404e75551f4f0d899e672eb303014c769448081c072c7",
     "dfe730af482f6fef7165288b95fbeee5e8bff77a1e6e9768652f79e104c1165f",
     "519adfcc2cd313fcca8fd8abb756b0cd7850f934a1878c1a818bd936e9095b0c"},
    {99, "b157ffcae190d0f49f74fa8d5917aabcec5bdf99a50ca73d11f5c4a36d61814c",
     "023fe0c1b033ce49d8fc3266d993d7aac288c6eeb3085f84d512f5d13bdce2062a",
     "ece4f068464c0fc65882fbca9ca249348e6d2f30407ff7741be633060d3bd275",
     "0823bc6805ab3204a60b38827ac4d725edb6ad27cbdc9325b4c33cc7df889ad7"},
    {199, "168cfae8918f08aefee15d556c1cf55f567cf81ac4ac77c024b8c87af90b45ee",
     "032dd69c0db855aaeae006e0bfdf6c3af6bfa2c334ea0e136d8d9e3cf33a267b08",
     "ccec374943e9c9972a50b0989eae7b005db63f681173d01525779d3031976541",
     "455e9d69f117ebc6a7f511d3194e49b8c50f3fe82afb4cd35079ea5eff55060b"},
    {999, "97abb347670588021973b435567e34e92e736980a82556f818d328844cac6cab",
     "02d9f2471f1c9d40e44ef272a086c643ea9f207a9593c883b766a91db3413c8ba1",
     "f38fe9dc68b4f808ec53b6253820d4378e7a00e4f1040c88e899185817c9cef1",
     "0ae8441ba238cb2d58722b62204a1bad3d2c722be215530570ae5151c27fb346"},
    {9999, "75844a6befff3cb6b8721f9ed1e549b39106983cfa109abfa566f90d0a5f974d",
     "034ea6d6e24c3fc19c9e52d068cc1aa5e90717b6b0da5403f2428238af28d27b54",
     "be17f7d8b03ca92114293fb1d26f37a30fa91b89f3d465473b530595ba2d53a2",
     "6385555b1c38a505446fea8bd76dd5688356b0f66261a40d5128502383d93014"},
};

/// Explicit secrets: small keys, keys at and near n, powers of two, random
/// keys; messages include the zero hash, all-0xff, n, n + 1 and n - 1.
struct KeyVector {
  const char* secret;
  const char* msg;
  const char* pubkey;  ///< compressed
  const char* r;
  const char* s;
};

const KeyVector kKeyVectors[] = {
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "eb5aadbbd988e60a22f3a5b497835dedc1467c43598709343bcb059e619f90c9",
     "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "d4d368c323f855831e6b1003b6e94109cfd06cd9946737cd029847746dccbf2a",
     "78514749b4a4516312eab417a74a73ca7ed35d435a69b7c7462d25cfbdf95a21"},
    {"0000000000000000000000000000000000000000000000000000000000000002",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
     "342c032334193e19f60efd955e0553471bbdbdd83041ff74a740f9105442ea80",
     "50961483aca825c01586c718c5fecaf2950d1dfa5d8eb7d22bde26291370a65d"},
    {"0000000000000000000000000000000000000000000000000000000000000003",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
     "d9f6983ec303d694997bc5975ba16ac8c9f53b7e2b5370037f47d0761622f307",
     "296b9285b493900921e14e4c6d302da92775d81a7dc07c4bf0b9d44b3b0c99d3"},
    {"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
     "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141",
     "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "57ef6d547fb67b66fade724b2d4a1c5baa1f92fa7d2643e463a30a41cdeb4964",
     "2e3d57196ba9bf08dbcfd64c253dac63ea93f1c7756f4d77e65b689d8ccceefe"},
    {"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd036413f",
     "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364142",
     "03c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
     "200a231fc834a6ffd36fcc1d0a2aca95d3d101ecd9b737946a2b80a1508fc131",
     "3a0440389ca391723ae5cb28056d6d7223f1d7112ede4ffddf6edde1bb9b95e2"},
    {"7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0",
     "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
     "0300000000000000000000003b78ce563f89a0ed9414f5aa28ad0d96d6795f9c63",
     "126555711dfd46ac168972a3118f8db329980d6b84a50b01ac322a235952a006",
     "14c8404eeb35ef271d21c1da8085509c8d5f78acaff37b463cdee2ec6ff63dad"},
    {"0000000000000000000000000000000100000000000000000000000000000000",
     "f2fad94c3261a086594df31db6db5b934997d7af92f8e77c8fdfa8d56ac048db",
     "028f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
     "73815b1472ebd5e62c51b97b26c99e5114a0607a1dac4fb2a2d5099312c8a648",
     "09de69abf0c449a19ab19d133225fe6f3cc5839bbbde62529cdea920ad9c49cc"},
    {"8000000000000000000000000000000000000000000000000000000000000000",
     "49bc5cc6df346a8379f99b4b5869ac3e3119b57b514e90d10d2858f189946726",
     "02b23790a42be63e1b251ad6c94fdef07271ec0aada31db6c3e8bd32043f8be384",
     "3150fa0d079cce3da6838824d3230e3f3a7c74a5f63c00f39a8b270bf1e0f39d",
     "001afc780d00918bce2f079c1870b4b503fdc556df0d1b066d9e7648cb3a2e00"},
    {"00000000000000000000000000000000ffffffffffffffffffffffffffffffff",
     "c1907ce05d10e1f73c17b8425de6a31999c64ff5ff02674a875e24dc0671787b",
     "036c034fd8cc8bd548e12569b630710400e6c24a05d9d6b32f08522a241e936da8",
     "d10eb2e9f7289b1ba9aa245baef7d8748cbc32824b65a628a31dd7d7e4d1814c",
     "73b175ee7ae437c5b4cd9f644dd5e0a90dfd3886e50265f44fd47504b88f5a5d"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "eaf2d6d638cacb04c1bde9d1b3fc4076d119292078dfc6fb57381e8e49683454",
     "02370ebfed473178159fd08c3f7bc07e12301792fbd251554a80298efc666c651d",
     "2d77ad2319ff115313b231311ca7e570d317bb361a9a8617b819ea15b8a12cf1",
     "1a831eb0ef280665503e2de2868b4f593cb87386316414e211b9be5a51564db1"},
    {"00d51dc4f4fc4db67a81b1a00c60668bc453b67fda38837aa9b0881355398e98",
     "9285346c784332b0b346e323e4a7cacf25a795539f0edc333d3b41cf07513cd0",
     "03ada29d41a98e28e5a14e1f7576be320da8f4be44b84578a492bed9a1065c9726",
     "3398e35df30d3d9d6d528592e25d4ddf02cb693f4edd53099035deae7af7ac7a",
     "5897485bdd61726183bddec9bcbe61b3bd4dc7eea8bc2bfb4b2967f8207e09b5"},
    {"25c26d6ef227dd1e84ca4e83e4c0ab0fe2f955aeca9fe60de43615b2283f747c",
     "87182d76ccd10e22f72021cfa064ef74de1c3dafa9f36f8996de235f21748d66",
     "03391addd38de9b109878651422c5885f75923e483484a5de396c6679c0e23cea4",
     "288bc8b77458ae9190866f544a9f0bc549f314655df27ff5875abde212aba05b",
     "3a96765cab45f7375c64ab27941c247f65a49e91948e1fc3baf78d77e18e5085"},
    {"4a6039c6d877eb17f9cd14fad71cac0160536102814f8d1fe45987d8d3ee3f2d",
     "2fba771201f7a82aa9bc5c81d4a2c9bfab4fa130624159fa398a5faa5dfde1bf",
     "02756c0399abad004393d2d41677d5ff3a80a046f27ce2032e48c89c690cd8814c",
     "26375a6475aac7e22217505171a178c3dd7a0d17c3a593dc324f95dcee019573",
     "086266b20acb7b2a4d22beb23e0f550c1ba0d6717b8e910d38b05975e3b782f0"},
    {"94ad34ae80ae29774dd3a6442ed519c6114c4e1c39eef50e9a923f1ca8ec81cb",
     "fb28b00a5745d600547d00496c3ade0f47b22b8d9b9e2af30cfef2a8a8ea4eb1",
     "03fa5f5776ddbc80350e36590c5d5a6c66f037779b6aaac332855ca2e03e985156",
     "7d75f0d5357434587da07a0b2e0ad550ecebd79d055844c78a106fcf1f61cca7",
     "075d57593c6267c07bf9920d7e5f06dcc2fd4382ab402019794a8d037025622c"},
    {"ad0723eaf7002e81781d4726bcf57f40de882ab3718d6ace8507c506adcbadf9",
     "61f40c94a0ee310c17cdafe4a28c4c207164057112ccddfe40eb7e9a0f06d9a8",
     "038acc9a75b543615ec7a64b31bb5688044acc1b962556b8128c0216a7d6370142",
     "a17a7cc9b4761ef6937387e75ecd8dbd82ecbbe55cde6a19d00d0982ef14efb0",
     "6c5a69c0f2b25194bc214f4c8878d2eab3f39821330bb2975ef53c5e5e6adbc4"},
    {"1993ae899453b8f95c920c9998f3f6c87b3fccdca2f6a5258a6f9ade191e862f",
     "d8a4b490c00cb143d6665d59a889ca3b1ec4a0bf2fc4143c3a99d0f20ddf1c93",
     "02dba4287a6cae83e9cad9b17873a5244f15f9463345c10013ab22e1653a9919e4",
     "78f00068ef0bd60d514a04c021ffce042c020ba6d3f68f6a6c61c5fdd798add6",
     "6573212fe221a6477379e65d9e04f959c2967cf245940af20117469f067d23a8"},
};

Hash256 hash_of(const char* hex) { return Hash256::from_hex(hex); }

void expect_vector(const PrivateKey& sk, const char* msg, const char* pubkey,
                   const char* r, const char* s) {
  const PublicKey pk = sk.public_key();
  EXPECT_EQ(to_hex(pk.serialize_compressed()), pubkey);
  const Signature sig = sign(sk, hash_of(msg));
  EXPECT_EQ(sig.r.to_hex(), r);
  EXPECT_EQ(sig.s.to_hex(), s);
  EXPECT_TRUE(verify(pk, hash_of(msg), sig));
}

TEST(EcdsaVectors, NgLeaderKeys) {
  for (const NgVector& v : kNgVectors) {
    SCOPED_TRACE(v.id);
    expect_vector(PrivateKey::from_seed(0x6e670000ull + v.id), v.msg, v.pubkey, v.r, v.s);
  }
}

TEST(EcdsaVectors, ExplicitKeys) {
  for (const KeyVector& v : kKeyVectors) {
    SCOPED_TRACE(v.secret);
    expect_vector(PrivateKey{U256::from_hex(v.secret)}, v.msg, v.pubkey, v.r, v.s);
  }
}

// --- Scalar layer against the generic U512::mod oracle -----------------------

U256 oracle(const U512& v) { return v.mod(order_n()); }

U512 wide_sum(const U256& a, const U256& b) {
  bool carry;
  U512 w = U512::from_u256(U256::add(a, b, carry));
  w.limb[4] = carry ? 1 : 0;
  return w;
}

std::vector<U256> edge_scalars() {
  const U256 n = order_n();
  bool flag;
  return {U256(0),
          U256(1),
          U256::sub(n, U256(1), flag),
          n,
          U256::add(n, U256(1), flag),
          U256(~0ull, ~0ull, ~0ull, ~0ull),
          U256(0, 0, 0, 1ull << 63),
          U256::sub(n, U256(1), flag).shr(1),
          U256(~0ull, ~0ull, 0, 0)};
}

std::vector<U256> test_scalars() {
  std::vector<U256> out = edge_scalars();
  Rng rng(0x5ca1a);
  for (int i = 0; i < 40; ++i) out.emplace_back(rng.next(), rng.next(), rng.next(), rng.next());
  return out;
}

TEST(ScalarOracle, ReduceMatchesLongDivision) {
  for (const U256& a : test_scalars())
    EXPECT_EQ(sc_reduce(a), oracle(U512::from_u256(a))) << a.to_hex();
}

TEST(ScalarOracle, MulMatchesLongDivision) {
  const auto xs = test_scalars();
  for (const U256& a : xs)
    for (const U256& b : xs)
      ASSERT_EQ(sc_mul(a, b), oracle(U256::mul_wide(a, b))) << a.to_hex() << " * " << b.to_hex();
}

TEST(ScalarOracle, AddMatchesLongDivisionIncludingCarryOut) {
  const auto xs = test_scalars();
  bool carried = false;
  for (const U256& a : xs)
    for (const U256& b : xs) {
      const U512 sum = wide_sum(a, b);
      carried |= sum.limb[4] != 0;
      ASSERT_EQ(sc_add(a, b), oracle(sum)) << a.to_hex() << " + " << b.to_hex();
    }
  EXPECT_TRUE(carried);  // the 2^256 carry path was exercised
}

TEST(ScalarOracle, WideReductionAtMaximalHighHalf) {
  U512 v;
  for (auto& l : v.limb) l = ~0ull;
  EXPECT_EQ(reduce_n(v), oracle(v));
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    U512 w;
    for (auto& l : w.limb) l = rng.next();
    // Alternate dense and sparse high halves.
    if (i % 4 == 1) w.limb[7] = ~0ull;
    if (i % 4 == 2) w.limb[4] = w.limb[5] = w.limb[6] = 0;
    if (i % 4 == 3) w.limb[7] = w.limb[6] = w.limb[5] = 0;
    ASSERT_EQ(reduce_n(w), oracle(w)) << i;
  }
}

TEST(ScalarOracle, NegationIsReducedAndCancels) {
  for (const U256& a : test_scalars()) {
    const U256 neg = sc_neg(a);
    EXPECT_LT(neg, order_n()) << a.to_hex();
    EXPECT_EQ(sc_add(neg, a), U256(0)) << a.to_hex();
  }
}

TEST(ScalarOracle, InverseIsTheUniqueInverse) {
  for (const U256& a : test_scalars()) {
    if (sc_reduce(a).is_zero()) continue;
    const U256 inv = sc_inv(a);
    EXPECT_LT(inv, order_n());
    EXPECT_EQ(oracle(U256::mul_wide(inv, a)), U256(1)) << a.to_hex();
  }
}

// --- Fixed-base multiply against generic double-and-add ----------------------

TEST(FixedBase, MatchesDoubleAndAdd) {
  std::vector<U256> ks = edge_scalars();
  Rng rng(0xba5e);
  for (int i = 0; i < 40; ++i) ks.emplace_back(rng.next(), rng.next(), rng.next(), rng.next());
  for (const U256& k : ks) {
    const AffinePoint fixed = scalar_mul_base(k).to_affine();
    const AffinePoint generic = scalar_mul(k, generator()).to_affine();
    EXPECT_EQ(fixed, generic) << k.to_hex();
    EXPECT_TRUE(fixed.valid());
  }
  EXPECT_TRUE(scalar_mul_base(U256(0)).is_infinity());
  EXPECT_TRUE(scalar_mul_base(order_n()).is_infinity());
  EXPECT_EQ(scalar_mul_base(U256(1)).to_affine(), generator());
}

}  // namespace
}  // namespace bng::crypto
