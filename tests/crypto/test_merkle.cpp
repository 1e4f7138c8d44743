#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bng::crypto {
namespace {

std::vector<Hash256> make_leaves(std::size_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    leaves.push_back(sha256(std::string("leaf-") + std::to_string(i)));
  return leaves;
}

TEST(Merkle, EmptyIsZeroHash) { EXPECT_TRUE(merkle_root({}).is_zero()); }

TEST(Merkle, SingleLeafIsItself) {
  auto leaves = make_leaves(1);
  EXPECT_EQ(merkle_root(leaves), leaves[0]);
}

TEST(Merkle, TwoLeavesIsPairHash) {
  auto leaves = make_leaves(2);
  std::uint8_t buf[64];
  std::copy(leaves[0].bytes.begin(), leaves[0].bytes.end(), buf);
  std::copy(leaves[1].bytes.begin(), leaves[1].bytes.end(), buf + 32);
  EXPECT_EQ(merkle_root(leaves), sha256d(std::span<const std::uint8_t>(buf, 64)));
}

TEST(Merkle, OddCountDuplicatesLast) {
  // Bitcoin convention: [a, b, c] hashes like [a, b, c, c].
  auto leaves3 = make_leaves(3);
  auto leaves4 = leaves3;
  leaves4.push_back(leaves3[2]);
  EXPECT_EQ(merkle_root(leaves3), merkle_root(leaves4));
}

TEST(Merkle, OrderMatters) {
  auto leaves = make_leaves(4);
  auto swapped = leaves;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(merkle_root(leaves), merkle_root(swapped));
}

TEST(Merkle, LeafChangeChangesRoot) {
  auto leaves = make_leaves(8);
  auto root1 = merkle_root(leaves);
  leaves[5].bytes[0] ^= 1;
  EXPECT_NE(merkle_root(leaves), root1);
}

class MerkleProofTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// The valid (leaves, index < leaves) pairs of a grid of tree sizes and leaf
/// positions.
std::vector<std::tuple<int, int>> proof_shapes() {
  std::vector<std::tuple<int, int>> shapes;
  for (const int n : {1, 2, 3, 5, 8, 13, 64})
    for (const int index : {0, 1, 4, 7, 12, 63})
      if (index < n) shapes.emplace_back(n, index);
  return shapes;
}

TEST_P(MerkleProofTest, ProofVerifiesAtEveryIndex) {
  const auto [n_leaves, index] = GetParam();
  auto leaves = make_leaves(n_leaves);
  auto root = merkle_root(leaves);
  auto proof = merkle_proof(leaves, index);
  EXPECT_EQ(merkle_proof_root(leaves[index], proof), root);
}

TEST_P(MerkleProofTest, ProofRejectsWrongLeaf) {
  // A one-leaf tree has an empty proof: the leaf is its own root, and a
  // wrong leaf must still miss it.
  const auto [n_leaves, index] = GetParam();
  auto leaves = make_leaves(n_leaves);
  auto root = merkle_root(leaves);
  auto proof = merkle_proof(leaves, index);
  Hash256 wrong = leaves[index];
  wrong.bytes[31] ^= 1;
  EXPECT_NE(merkle_proof_root(wrong, proof), root);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MerkleProofTest, ::testing::ValuesIn(proof_shapes()));

TEST(MerkleProof, DepthIsLogarithmic) {
  auto leaves = make_leaves(64);
  EXPECT_EQ(merkle_proof(leaves, 0).siblings.size(), 6u);
  auto leaves3 = make_leaves(3);
  EXPECT_EQ(merkle_proof(leaves3, 0).siblings.size(), 2u);
}

}  // namespace
}  // namespace bng::crypto
