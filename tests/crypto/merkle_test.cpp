#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/serial.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::to_bytes;

std::vector<Bytes> make_leaves(std::size_t n) {
  std::vector<Bytes> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(to_bytes("page-element-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), MerkleTree::hash_leaf(leaves[0]));
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(MerkleTest, EmptyLeavesRejected) {
  EXPECT_THROW(MerkleTree(std::vector<Bytes>{}), std::invalid_argument);
}

TEST(MerkleTest, TwoLeafRootStructure) {
  auto leaves = make_leaves(2);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(),
            MerkleTree::hash_interior(MerkleTree::hash_leaf(leaves[0]),
                                      MerkleTree::hash_leaf(leaves[1])));
}

TEST(MerkleTest, DomainSeparationLeafVsInterior) {
  Bytes d = to_bytes("x");
  EXPECT_NE(MerkleTree::hash_leaf(d), Sha1::digest_bytes(d));
}

TEST(MerkleTest, EmptyLeafHashesTagOnly) {
  Bytes tag{0x00};
  EXPECT_EQ(MerkleTree::hash_leaf(Bytes{}), Sha1::digest_bytes(tag));
}

class MerkleProofProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofProperty, AllLeavesVerify) {
  std::size_t n = GetParam();
  auto leaves = make_leaves(n);
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(leaves[i], proof, tree.root()))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofProperty, WrongLeafDataFailsVerification) {
  std::size_t n = GetParam();
  auto leaves = make_leaves(n);
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(0);
  EXPECT_FALSE(MerkleTree::verify(to_bytes("tampered"), proof, tree.root()));
}

// Odd counts exercise the promoted-node path.
INSTANTIATE_TEST_SUITE_P(LeafCounts, MerkleProofProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 11, 16, 33, 100));

TEST(MerkleTest, ProofForWrongLeafIndexFails) {
  auto leaves = make_leaves(8);
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(3);
  // Proof for leaf 3 must not validate leaf 4's data.
  EXPECT_FALSE(MerkleTree::verify(leaves[4], proof, tree.root()));
}

TEST(MerkleTest, OutOfRangeProveThrows) {
  MerkleTree tree(make_leaves(4));
  EXPECT_THROW(tree.prove(4), std::out_of_range);
}

TEST(MerkleTest, RootChangesWhenAnyLeafChanges) {
  auto leaves = make_leaves(9);
  MerkleTree original(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i].push_back(0xff);
    MerkleTree changed(mutated);
    EXPECT_NE(changed.root(), original.root()) << "leaf " << i;
  }
}

TEST(MerkleTest, ProofSerializationRoundTrip) {
  MerkleTree tree(make_leaves(13));
  MerkleProof proof = tree.prove(7);
  Bytes wire = proof.serialize();
  MerkleProof parsed = MerkleProof::parse(wire);
  EXPECT_EQ(parsed.leaf_index, proof.leaf_index);
  ASSERT_EQ(parsed.steps.size(), proof.steps.size());
  for (std::size_t i = 0; i < proof.steps.size(); ++i) {
    EXPECT_EQ(parsed.steps[i].sibling, proof.steps[i].sibling);
    EXPECT_EQ(parsed.steps[i].sibling_is_left, proof.steps[i].sibling_is_left);
  }
  EXPECT_TRUE(MerkleTree::verify(to_bytes("page-element-7"), parsed, tree.root()));
}

TEST(MerkleTest, ProofParseRejectsTruncation) {
  MerkleTree tree(make_leaves(5));
  Bytes wire = tree.prove(2).serialize();
  wire.pop_back();
  EXPECT_THROW(MerkleProof::parse(wire), util::SerialError);
}

TEST(MerkleTest, ProofLengthIsLogarithmic) {
  MerkleTree tree(make_leaves(128));
  EXPECT_EQ(tree.prove(0).steps.size(), 7u);  // log2(128)
}

TEST(MerkleTest, TamperedProofStepFails) {
  auto leaves = make_leaves(16);
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(5);
  proof.steps[2].sibling[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(leaves[5], proof, tree.root()));
}


TEST(MerkleTest, ForgedProofStepCountRejected) {
  // Eight bytes claiming 2^32-1 proof steps: a 64-step proof already covers
  // 2^64 leaves, so anything above the ceiling is rejected before
  // steps.reserve() allocates.
  util::Writer w;
  w.u32(0);            // leaf index
  w.u32(0xFFFFFFFFu);  // forged step count
  EXPECT_THROW(MerkleProof::parse(w.take()), util::SerialError);
}
}  // namespace
}  // namespace globe::crypto
