package repro.core

import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.mutable

/** CPSJoin — faithful single-node implementation of Algorithm 1 (CPSJOIN)
  * and Algorithm 2 (BRUTEFORCE), including the implementation heuristics of
  * §V-A:
  *
  *  - the splitting step samples an expected 1/λ coordinates from [t] (each
  *    coordinate with probability 1/(λt)) and buckets records on their
  *    precomputed MinHash value at those coordinates, so placing a record in
  *    child buckets costs O(1) per child instead of O(|x|);
  *  - the BRUTEFORCE step estimates each record's average similarity to its
  *    bucket in O(ℓ) words using a sampled bucket sketch ŝ (instead of the
  *    O(t) exact token-count rule), and runs a single pass per node, calling
  *    BRUTEFORCEPOINT on every record that passes the check;
  *  - candidate pairs are filtered through the 1-bit minwise sketch check at
  *    threshold λ̂ (false-negative probability δ) before exact verification;
  *  - duplicates across buckets/repetitions are removed at the end.
  *
  * One tree node is one call of `nodeStep`: the depth cap, BRUTEFORCE on the
  * bucket (`bruteForceStep`) and the split of its survivors into child
  * buckets. `runRep` recurses on it depth-first; the Spark implementation
  * (`CPSJoinSpark`) calls the same function once per shuffled bucket, level
  * by level. A Spark bucket arrives in no defined order, so the node step
  * depends only on the set of records in the bucket, never on their order.
  */
object CPSJoinLocal {

  /** BRUTEFORCE step of one tree node (Algorithm 2).
    * Runs the BRUTEFORCE step on the bucket `input`; emits verified pairs
    * through `emit` and returns the surviving records (empty if the bucket
    * was fully brute-forced). The result does not depend on the order of
    * `input`: the bucket sketch ŝ samples members in ascending-id order,
    * and the survivors are returned in that order.
    *
    * @param useExactAvg use Algorithm 2's exact token-count average-similarity
    *                    rule over the embedded coordinates instead of the
    *                    sketch heuristic (slower; used in tests)
    */
  def bruteForceStep(input: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
                     nodeSeed: Long, stats: StatsSink,
                     emit: (Long, Long, Double) => Unit,
                     useExactAvg: Boolean = false): scala.collection.IndexedSeq[EmbeddedRec] = {
    val lh = Sketch.lambdaHat(lambda, p.sketchBits, p.delta)
    if (input.length <= p.limit) {
      Verification.bruteForcePairs(input, lambda, lh, p.sketchBits, stats, emit)
      return Vector.empty
    }
    val bucket = if (sortedById(input)) input else input.sortBy(_.id)
    val removeFlag = new Array[Boolean](bucket.length)
    if (useExactAvg) {
      // Algorithm 2 verbatim on the embedded representation: count[(i, v)]
      // is the number of bucket members whose i-th minhash equals v.
      val count = mutable.HashMap.empty[Long, Int]
      for (x <- bucket; i <- 0 until p.t) {
        val key = (i.toLong << 32) | (x.mh(i).toLong & 0xffffffffL)
        count.update(key, count.getOrElse(key, 0) + 1)
      }
      var xi = 0
      while (xi < bucket.length) {
        val x = bucket(xi)
        var sum = 0L
        var i = 0
        while (i < p.t) {
          val key = (i.toLong << 32) | (x.mh(i).toLong & 0xffffffffL)
          sum += count(key) - 1
          i += 1
        }
        val avg = sum.toDouble / p.t / (bucket.length - 1)
        removeFlag(xi) = avg > (1.0 - p.eps) * lambda
        xi += 1
      }
    } else {
      val rng = new SplittableRandom(Hashing.mix64(nodeSeed ^ 0xb5caL))
      val sHat = Sketch.bucketSketch(bucket.map(_.sketch), p.ell, rng)
      var xi = 0
      while (xi < bucket.length) {
        val est = Sketch.estimate(bucket(xi).sketch, sHat, p.sketchBits)
        removeFlag(xi) = est > (1.0 - p.eps) * lambda
        xi += 1
      }
    }
    val survivors = Vector.newBuilder[EmbeddedRec]
    // Compare each removed point against survivors and *later* removed points
    // so no pair is reported twice within this node (equivalent to
    // Algorithm 2's sequential remove-and-recurse).
    var xi = 0
    while (xi < bucket.length) {
      if (!removeFlag(xi)) survivors += bucket(xi)
      xi += 1
    }
    val surv = survivors.result()
    xi = 0
    while (xi < bucket.length) {
      if (removeFlag(xi)) {
        val x = bucket(xi)
        Verification.bruteForcePoint(x, surv, lambda, lh, p.sketchBits, stats, emit)
        var yj = xi + 1
        while (yj < bucket.length) {
          if (removeFlag(yj)) Verification.verifyEmit(x, bucket(yj), lambda, lh, p.sketchBits, stats, emit)
          yj += 1
        }
      }
      xi += 1
    }
    surv
  }

  private def sortedById(bucket: scala.collection.IndexedSeq[EmbeddedRec]): Boolean = {
    var i = 1
    while (i < bucket.length && bucket(i - 1).id <= bucket(i).id) i += 1
    i >= bucket.length
  }

  /** Splitting coordinates for a node: each i ∈ [t] chosen independently with
    * probability 1/(λt) using a coin derived from (nodeSeed, i), so every
    * record in the node sees the same choice (Algorithm 1's shared r).
    */
  def splitCoordinates(nodeSeed: Long, t: Int, lambda: Double): Array[Int] = {
    val pSel = 1.0 / (lambda * t)
    val out = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < t) {
      if (Hashing.toUnitDouble(Hashing.combine(nodeSeed, i.toLong)) < pSel) out += i
      i += 1
    }
    out.result()
  }

  /** Child node identity: hash of (parent node, coordinate, minhash value). */
  @inline def childSeed(nodeSeed: Long, coord: Int, mhValue: Int): Long =
    Hashing.combine(nodeSeed, (coord.toLong << 32) ^ (mhValue.toLong & 0xffffffffL))

  /** Seed of the root node of repetition `rep`'s tree. */
  def rootSeed(p: CPSParams, rep: Int): Long = Hashing.mix64(p.seed + 0x9e3779b9L * (rep + 1))

  /** One Chosen Path tree node at `depth`, shared by the local and Spark
    * engines. A bucket of fewer than two records does nothing. Otherwise the
    * BRUTEFORCE step runs on it (with no size limit once `depth` reaches
    * `p.maxDepth`, so the tree ends there) and emits its verified pairs
    * (id1 < id2); each sampled coordinate c then groups the survivors on
    * their minhash value at c. The result is the node's children with at
    * least two members, each with its child seed; they are grouped one
    * coordinate at a time as the iterator advances.
    */
  def nodeStep(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
               nodeSeed: Long, depth: Int, stats: StatsSink, emit: (Long, Long, Double) => Unit,
               useExactAvg: Boolean = false): Iterator[(Long, scala.collection.IndexedSeq[EmbeddedRec])] = {
    if (bucket.length < 2) return Iterator.empty
    val effective = if (depth >= p.maxDepth) p.copy(limit = Int.MaxValue) else p
    val survivors = bruteForceStep(bucket, lambda, effective, nodeSeed, stats, emit, useExactAvg)
    if (survivors.length < 2) return Iterator.empty
    splitCoordinates(nodeSeed, p.t, lambda).iterator.flatMap { c =>
      val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[EmbeddedRec]]
      for (x <- survivors) children.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x
      children.iterator.collect { case (v, child) if child.length >= 2 => (childSeed(nodeSeed, c, v), child) }
    }
  }

  /** One repetition of CPSJoin (one Chosen Path tree). */
  def runRep(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, rep: Int,
             stats: StatsSink, emit: (Long, Long, Double) => Unit,
             useExactAvg: Boolean = false): Unit = {
    def recurse(bucket: scala.collection.IndexedSeq[EmbeddedRec], nodeSeed: Long, depth: Int): Unit =
      for ((seed, child) <- nodeStep(bucket, lambda, p, nodeSeed, depth, stats, emit, useExactAvg))
        recurse(child, seed, depth + 1)
    recurse(recs, rootSeed(p, rep), 0)
  }

  /** Full self-join: `p.reps` repetitions, output deduplicated.
    * Returns pairs (id1 < id2) with their exact Jaccard similarity.
    */
  def selfJoin(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double,
               p: CPSParams = CPSParams(), stats: StatsSink = NullStats,
               useExactAvg: Boolean = false): Map[(Long, Long), Double] = {
    val out = mutable.HashMap.empty[(Long, Long), Double]
    val emit = (a: Long, b: Long, s: Double) => { out.update((a, b), s); () }
    var r = 0
    while (r < p.reps) {
      runRep(recs, lambda, p, r, stats, emit, useExactAvg)
      r += 1
    }
    out.toMap
  }

  /** Convenience: embed raw records then self-join. */
  def selfJoinRaw(recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
                  p: CPSParams = CPSParams(), stats: StatsSink = NullStats): Map[(Long, Long), Double] = {
    val hasher = new MinHasher(p.t, p.ell, p.seed)
    selfJoin(EmbeddedRec.embedAll(recs, hasher).toIndexedSeq, lambda, p, stats)
  }
}
