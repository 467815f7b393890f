// Differential tests of the flat molecule set (MoleculeSet) against
// test-only oracles: molecule equality and Ω, Δ, Ψ against the canonical-key
// strings (tests/support/canonical_key.h), Π in place against projecting
// each molecule alone, and the round trip through owning Molecules.
//
// Molecules are drawn at random over a diamond with a reflexive tail —
// a -> {b, c} -> d -> d2, where d2 is d's own atom type reached through a
// reflexive link type — from small atom pools, so shared subobjects,
// duplicate molecules and equal molecules built in different orders are
// common. Ω, Δ and Ψ never look at the database, so the molecules need not
// be derivable.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "molecule/operations.h"
#include "support/canonical_key.h"

namespace mad {
namespace {

using reference::CanonicalKey;

std::vector<std::string> Keys(const MoleculeSet& set) {
  std::vector<std::string> keys;
  for (MoleculeView m : set) keys.push_back(CanonicalKey(m));
  return keys;
}

/// Order-sensitive equality: same groups and links in the same order.
void ExpectIdentical(MoleculeView got, MoleculeView want,
                     const std::string& where) {
  ASSERT_EQ(got.root(), want.root()) << where;
  ASSERT_EQ(got.node_count(), want.node_count()) << where;
  for (size_t n = 0; n < got.node_count(); ++n) {
    EXPECT_TRUE(std::ranges::equal(got.AtomsOf(n), want.AtomsOf(n)))
        << where << " node " << n;
  }
  EXPECT_TRUE(std::ranges::equal(got.links(), want.links())) << where;
}

class MoleculeSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* type : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(db_.DefineAtomType(type, Schema()).ok());
    }
    for (auto [name, first, second] :
         {std::tuple{"ab", "a", "b"}, std::tuple{"ac", "a", "c"},
          std::tuple{"bd", "b", "d"}, std::tuple{"cd", "c", "d"},
          std::tuple{"dd", "d", "d"}}) {
      ASSERT_TRUE(db_.DefineLinkType(name, first, second).ok());
    }
    auto md = MoleculeDescription::Create(
        db_,
        {{"a", "a", std::nullopt},
         {"b", "b", std::nullopt},
         {"c", "c", std::nullopt},
         {"d", "d", std::nullopt},
         {"d", "d2", std::nullopt}},
        {{"ab", "a", "b", false},
         {"ac", "a", "c", false},
         {"bd", "b", "d", false},
         {"cd", "c", "d", false},
         {"dd", "d", "d2", false}});
    ASSERT_TRUE(md.ok()) << md.status();
    md_ = *std::move(md);
  }

  /// A random molecule: root from three candidates, each group a few atoms
  /// from a pool of five (a repeat now and then), a few links per edge.
  Molecule RandomMolecule() {
    const size_t n = md_->nodes().size();
    Molecule m(AtomId{1 + rng_() % 3}, n);
    m.AddAtom(0, m.root());
    for (size_t node = 1; node < n; ++node) {
      const size_t count = rng_() % 4;
      for (size_t k = 0; k < count; ++k) {
        m.AddAtom(node, AtomId{10 * node + rng_() % 5});
      }
    }
    for (uint32_t edge = 0; edge < md_->links().size(); ++edge) {
      const size_t count = rng_() % 3;
      for (size_t k = 0; k < count; ++k) {
        m.AddLink({edge, AtomId{rng_() % 4}, AtomId{rng_() % 4}});
      }
    }
    return m;
  }

  /// `m` with every group and the link list shuffled.
  Molecule Permuted(MoleculeView m) {
    Molecule out(m.root(), m.node_count());
    for (size_t node = 0; node < m.node_count(); ++node) {
      const std::span<const AtomId> group = m.AtomsOf(node);
      std::vector<AtomId> atoms(group.begin(), group.end());
      std::shuffle(atoms.begin(), atoms.end(), rng_);
      for (AtomId id : atoms) out.AddAtom(node, id);
    }
    std::vector<MoleculeLink> links(m.links().begin(), m.links().end());
    std::shuffle(links.begin(), links.end(), rng_);
    for (const MoleculeLink& link : links) out.AddLink(link);
    return out;
  }

  /// `m` with the same atoms and one link moved to another child: a
  /// different molecule whose groups all equal m's.
  Molecule Relinked(MoleculeView m) {
    Molecule out(m.root(), m.node_count());
    for (size_t node = 0; node < m.node_count(); ++node) {
      for (AtomId id : m.AtomsOf(node)) out.AddAtom(node, id);
    }
    const std::span<const MoleculeLink> links = m.links();
    for (size_t k = 0; k + 1 < links.size(); ++k) out.AddLink(links[k]);
    MoleculeLink moved{0, AtomId{1}, AtomId{99}};
    if (!links.empty()) {
      moved = links[links.size() - 1];
      moved.child = AtomId{moved.child.value + 100};
    }
    out.AddLink(moved);
    return out;
  }

  /// A random list of up to `max` molecules: fresh ones, permuted copies of
  /// earlier ones and of `pool` entries, exact duplicates, and relinked
  /// copies that differ from an earlier one only in a link.
  std::vector<Molecule> RandomMolecules(size_t max,
                                        const std::vector<Molecule>& pool) {
    std::vector<Molecule> out;
    const size_t count = rng_() % (max + 1);
    for (size_t i = 0; i < count; ++i) {
      switch (rng_() % 5) {
        case 0:
          if (!out.empty()) {
            out.push_back(out[rng_() % out.size()]);
            break;
          }
          [[fallthrough]];
        case 1:
          if (!out.empty()) {
            out.push_back(Relinked(out[rng_() % out.size()]));
            break;
          }
          [[fallthrough]];
        case 2:
          if (!pool.empty()) {
            out.push_back(Permuted(pool[rng_() % pool.size()]));
            break;
          }
          [[fallthrough]];
        default:
          out.push_back(RandomMolecule());
      }
    }
    return out;
  }

  MoleculeType TypeOf(const std::vector<Molecule>& molecules) {
    return MoleculeType("mt", *md_, molecules);
  }

  Database db_{"SETS"};
  std::optional<MoleculeDescription> md_;
  std::mt19937_64 rng_{20261019};
};

TEST_F(MoleculeSetTest, EqualityAndFingerprintMatchTheCanonicalKey) {
  std::vector<Molecule> pool;
  for (int i = 0; i < 60; ++i) pool.push_back(RandomMolecule());
  for (int i = 0; i < 60; ++i) pool.push_back(Permuted(pool[i]));
  for (int i = 0; i < 60; ++i) pool.push_back(Relinked(pool[i]));
  // One atom under two different nodes: these two molecules differ.
  Molecule moved(AtomId{1}, md_->nodes().size());
  moved.AddAtom(3, AtomId{7});
  Molecule unmoved(AtomId{1}, md_->nodes().size());
  unmoved.AddAtom(4, AtomId{7});
  pool.push_back(moved);
  pool.push_back(unmoved);
  size_t equal_pairs = 0;
  for (const Molecule& x : pool) {
    for (const Molecule& y : pool) {
      const bool same_key = CanonicalKey(x) == CanonicalKey(y);
      EXPECT_EQ(x == y, same_key);
      EXPECT_EQ(MoleculeView(x) == MoleculeView(y), same_key);
      if (same_key) {
        EXPECT_EQ(MoleculeView(x).Fingerprint(),
                  MoleculeView(y).Fingerprint());
        ++equal_pairs;
      }
    }
  }
  EXPECT_GT(equal_pairs, pool.size());  // permuted copies compare equal
}

TEST_F(MoleculeSetTest, UnionDifferenceIntersectMatchTheCanonicalKey) {
  for (int round = 0; round < 200; ++round) {
    const std::vector<Molecule> left = RandomMolecules(12, {});
    const std::vector<Molecule> right = RandomMolecules(12, left);
    const MoleculeType l = TypeOf(left);
    const MoleculeType r = TypeOf(right);
    const std::vector<std::string> left_keys = Keys(l.molecules());
    const std::vector<std::string> right_keys = Keys(r.molecules());
    const std::set<std::string> right_set(right_keys.begin(),
                                          right_keys.end());

    // Ω: every left molecule, then each right one whose key is new.
    std::vector<std::string> union_want = left_keys;
    std::set<std::string> seen(left_keys.begin(), left_keys.end());
    for (const std::string& key : right_keys) {
      if (seen.insert(key).second) union_want.push_back(key);
    }
    // Δ: the left molecules whose key is not on the right.
    auto minus = [](const std::vector<std::string>& from,
                    const std::set<std::string>& drop) {
      std::vector<std::string> kept;
      for (const std::string& key : from) {
        if (drop.count(key) == 0) kept.push_back(key);
      }
      return kept;
    };
    const std::vector<std::string> delta_want = minus(left_keys, right_set);
    // Ψ = Δ(l, Δ(l, r)).
    const std::vector<std::string> psi_want = minus(
        left_keys, std::set<std::string>(delta_want.begin(), delta_want.end()));

    auto omega = UnionMolecules(l, r, "omega");
    auto delta = DifferenceMolecules(l, r, "delta");
    auto psi = IntersectMolecules(l, r, "psi");
    ASSERT_TRUE(omega.ok() && delta.ok() && psi.ok());
    EXPECT_EQ(Keys(omega->molecules()), union_want) << "round " << round;
    EXPECT_EQ(Keys(delta->molecules()), delta_want) << "round " << round;
    EXPECT_EQ(Keys(psi->molecules()), psi_want) << "round " << round;
  }
}

TEST_F(MoleculeSetTest, EmptyOperands) {
  const MoleculeType empty = TypeOf({});
  const MoleculeType some = TypeOf({RandomMolecule(), RandomMolecule()});
  for (const MoleculeType* l : {&empty, &some}) {
    for (const MoleculeType* r : {&empty, &some}) {
      auto omega = UnionMolecules(*l, *r, "omega");
      auto delta = DifferenceMolecules(*l, *r, "delta");
      auto psi = IntersectMolecules(*l, *r, "psi");
      ASSERT_TRUE(omega.ok() && delta.ok() && psi.ok());
      EXPECT_EQ(omega->size(), l == &empty ? r->size() : l->size());
      EXPECT_EQ(delta->size(), r == &empty ? l->size() : 0u);
      EXPECT_EQ(psi->size(), r == &empty ? 0u : l->size());
    }
  }
}

TEST_F(MoleculeSetTest, ProjectInPlaceMatchesProjectingEachMoleculeAlone) {
  const size_t n = md_->nodes().size();
  for (int round = 0; round < 200; ++round) {
    // A root-preserving coherent keep-set: a node may stay only when a
    // node it hangs from stays (nodes are listed parents first).
    std::vector<bool> keep(n, false);
    keep[0] = true;
    for (size_t node = 1; node < n; ++node) {
      bool reachable = false;
      for (const DirectedLink& dl : md_->links()) {
        if (dl.to == md_->nodes()[node].label &&
            keep[*md_->NodeIndex(dl.from)]) {
          reachable = true;
        }
      }
      keep[node] = reachable && rng_() % 2 == 0;
    }
    MoleculeProjectionSpec spec;
    std::vector<size_t> kept_nodes;
    for (size_t node = 0; node < n; ++node) {
      if (!keep[node]) continue;
      spec.keep_labels.push_back(md_->nodes()[node].label);
      kept_nodes.push_back(node);
    }
    std::map<uint32_t, uint32_t> edge_remap;
    for (uint32_t e = 0; e < md_->links().size(); ++e) {
      const DirectedLink& dl = md_->links()[e];
      if (keep[*md_->NodeIndex(dl.from)] && keep[*md_->NodeIndex(dl.to)]) {
        const uint32_t next = static_cast<uint32_t>(edge_remap.size());
        edge_remap[e] = next;
      }
    }

    const std::vector<Molecule> molecules = RandomMolecules(10, {});
    auto projected = ProjectMolecules(db_, TypeOf(molecules), spec, "pi");
    ASSERT_TRUE(projected.ok()) << projected.status();
    ASSERT_EQ(projected->description().nodes().size(), kept_nodes.size());
    ASSERT_EQ(projected->description().links().size(), edge_remap.size());
    ASSERT_EQ(projected->size(), molecules.size());
    for (size_t i = 0; i < molecules.size(); ++i) {
      const Molecule& m = molecules[i];
      Molecule want(m.root(), kept_nodes.size());
      for (size_t k = 0; k < kept_nodes.size(); ++k) {
        for (AtomId id : m.AtomsOf(kept_nodes[k])) want.AddAtom(k, id);
      }
      for (const MoleculeLink& link : m.links()) {
        auto it = edge_remap.find(link.edge_index);
        if (it != edge_remap.end()) {
          want.AddLink({it->second, link.parent, link.child});
        }
      }
      ExpectIdentical(projected->molecules()[i], want,
                      "round " + std::to_string(round) + " molecule " +
                          std::to_string(i));
    }
  }
}

TEST_F(MoleculeSetTest, RoundTripThroughOwningMolecules) {
  for (int round = 0; round < 50; ++round) {
    const std::vector<Molecule> molecules = RandomMolecules(15, {});
    const MoleculeSet set(molecules, md_->nodes().size());
    ASSERT_EQ(set.size(), molecules.size());
    const std::vector<Molecule> back = set.ToMolecules();
    ASSERT_EQ(back.size(), molecules.size());
    const MoleculeSet again(back, md_->nodes().size());
    for (size_t i = 0; i < molecules.size(); ++i) {
      const std::string where =
          "round " + std::to_string(round) + " molecule " + std::to_string(i);
      ExpectIdentical(set[i], molecules[i], where);
      ExpectIdentical(back[i], molecules[i], where);
      ExpectIdentical(again[i], molecules[i], where);
      EXPECT_EQ(set[i].atom_count(), molecules[i].atom_count()) << where;
    }
  }
}

}  // namespace
}  // namespace mad
