package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core._
import repro.data.Datasets

class AllPairsLocalSpec extends AnyFunSuite {

  test("prefix length formulas") {
    // |x| = 10, λ = 0.5: probing = 10 − 5 + 1 = 6; indexing = 10 − ⌈20/3⌉ + 1 = 4
    assert(AllPairsLocal.probingPrefixLength(10, 0.5) == 6)
    assert(AllPairsLocal.indexingPrefixLength(10, 0.5) == 4)
    assert(AllPairsLocal.probingPrefixLength(10, 0.9) == 2)
    assert(AllPairsLocal.indexingPrefixLength(10, 0.9) == 1)
    // prefix lengths are positive and indexing <= probing for any size
    for (size <- 2 to 50; lambda <- Seq(0.5, 0.6, 0.7, 0.8, 0.9)) {
      val pp = AllPairsLocal.probingPrefixLength(size, lambda)
      val ip = AllPairsLocal.indexingPrefixLength(size, lambda)
      assert(ip >= 1 && pp >= ip, s"size=$size λ=$lambda pp=$pp ip=$ip")
    }
  }

  test("tokenRanks orders tokens by ascending frequency") {
    val recs = IndexedSeq(
      SetRec(0, Array(1, 2, 3)), SetRec(1, Array(2, 3)), SetRec(2, Array(3)))
    val ranks = AllPairsLocal.tokenRanks(recs)
    assert(ranks(1) < ranks(2) && ranks(2) < ranks(3))
  }

  test("empty / single / two-record inputs") {
    assert(AllPairsLocal.selfJoin(IndexedSeq.empty, 0.5).isEmpty)
    assert(AllPairsLocal.selfJoin(IndexedSeq(SetRec(0, Array(1, 2))), 0.5).isEmpty)
    val two = IndexedSeq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3)))
    val res = AllPairsLocal.selfJoin(two, 0.9)
    assert(res == Map((0L, 1L) -> 1.0))
  }

  test("all-identical records produce the complete clique") {
    val recs = (0 until 10).map(i => SetRec(i.toLong, Array(5, 9, 11)))
    val res = AllPairsLocal.selfJoin(recs, 0.9)
    assert(res.size == 45)
    assert(res.values.forall(_ == 1.0))
  }

  // Exactness: AllPairs must equal the brute-force ground truth everywhere.
  for {
    (name, scale) <- Seq(("AOL", 0.04), ("DBLP", 0.04), ("NETFLIX", 0.03),
                         ("UNIFORM005", 0.05), ("TOKENS10K", 0.08), ("SPOTIFY", 0.04))
    lambda <- Seq(0.5, 0.6, 0.7, 0.8, 0.9)
  } test(s"exactness vs brute force on $name at λ=$lambda") {
    val recs = Datasets.byName(name).gen(scale, seed = 41).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, lambda)
    val res = AllPairsLocal.selfJoin(recs, lambda)
    assert(res.keySet == truth.keySet,
      s"missing=${truth.keySet.diff(res.keySet).take(3)} extra=${res.keySet.diff(truth.keySet).take(3)}")
    for ((k, v) <- res) assert(math.abs(v - truth(k)) < 1e-12)
  }

  test("exactness on random records with size spread") {
    for (lambda <- Seq(0.5, 0.7, 0.9); seed <- 1 to 3) {
      val recs = TestUtil.randomRecords(250, 12, 60, seed = seed, spread = 8)
      assert(AllPairsLocal.selfJoin(recs, lambda).keySet == TestUtil.bruteTruth(recs, lambda).keySet)
    }
  }

  test("counter ordering: pre-candidates >= candidates >= results") {
    val recs = TestUtil.randomRecords(300, 12, 70, seed = 42, spread = 4)
    val stats = new LocalStats
    val res = AllPairsLocal.selfJoin(recs, 0.5, stats)
    assert(stats.pre >= stats.cand)
    assert(stats.cand >= stats.res)
    assert(stats.res == res.size)
  }

  test("rare tokens shrink the candidate set (prefix filtering at work)") {
    // Universe with many rare tokens: few pre-candidates per record.
    val rare = TestUtil.randomRecords(300, 10, 5000, seed = 43)
    // Dense universe: every inverted list is long.
    val dense = TestUtil.randomRecords(300, 10, 30, seed = 43)
    val sRare = new LocalStats; val sDense = new LocalStats
    AllPairsLocal.selfJoin(rare, 0.5, sRare)
    AllPairsLocal.selfJoin(dense, 0.5, sDense)
    assert(sRare.pre < sDense.pre, s"rare=${sRare.pre} dense=${sDense.pre}")
  }

  test("duplicate ids are rejected") {
    val recs = IndexedSeq(SetRec(1, Array(1, 2)), SetRec(2, Array(3, 4)), SetRec(1, Array(1, 3)))
    intercept[IllegalArgumentException](AllPairsLocal.selfJoin(recs, 0.5))
  }
}
