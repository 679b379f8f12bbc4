package repro.baselines

import repro.core._
import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.mutable

/** MinHash LSH similarity self-join (paper Algorithm 3 / §V-B).
  *
  * Each repetition buckets records on k concatenated MinHash values (k
  * coordinates of the precomputed t-coordinate minhash vector, sampled per
  * repetition) and brute-forces every non-empty bucket with the same
  * sketch-filtered verifier as CPSJoin. The parameter k is chosen per
  * dataset/threshold to minimize the estimated total cost
  * L(k) · (bucket work + hashing work) with L(k) = ln(1/(1−φ)) / λ^k.
  */
object MinHashLSHLocal {

  /** Coordinates used by repetition `rep` for key length `k` (distinct,
    * pseudorandomly sampled from [t] by the repetition seed).
    */
  def repCoordinates(t: Int, k: Int, seed: Long, rep: Int): Array[Int] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ (0x51ab0e * (rep + 7)).toLong))
    val picked = mutable.LinkedHashSet.empty[Int]
    while (picked.size < math.min(k, t)) picked += rng.nextInt(t)
    picked.toArray
  }

  /** Bucket key for a record under the given coordinates. */
  def bucketKey(mh: Array[Int], coords: Array[Int]): Long = {
    var h = 0x2545f4914f6cdd1dL
    var i = 0
    while (i < coords.length) { h = Hashing.combine(h, mh(coords(i)).toLong); i += 1 }
    h
  }

  /** Estimated cost of one repetition at key length k: number of in-bucket
    * pairs (similarity estimations) plus n (splitting work).
    */
  def repCost(recs: scala.collection.IndexedSeq[EmbeddedRec], k: Int, seed: Long): Double = {
    val coords = repCoordinates(recs.head.mh.length, k, seed, rep = -1)
    val sizes = mutable.HashMap.empty[Long, Long]
    for (r <- recs) {
      val key = bucketKey(r.mh, coords)
      sizes.update(key, sizes.getOrElse(key, 0L) + 1L)
    }
    sizes.valuesIterator.map(s => s * (s - 1) / 2.0).sum + recs.length.toDouble
  }

  /** Number of repetitions for recall φ at key length k (worst case at J = λ). */
  def repetitionsFor(phi: Double, lambda: Double, k: Int): Int =
    math.max(1, math.ceil(math.log(1.0 / (1.0 - phi)) / math.pow(lambda, k)).toInt)

  /** Choose k ∈ kRange minimizing estimated total join cost (paper §V-B). */
  def chooseK(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, phi: Double = 0.9,
              seed: Long = 42L, kRange: Range = 2 to 10): Int = {
    val t = recs.head.mh.length
    kRange.filter(_ <= t).minBy(k => repetitionsFor(phi, lambda, k) * repCost(recs, k, seed))
  }

  /** One LSH bucket, shared by the local and Spark engines: a bucket of at
    * least two records is brute-forced with the sketch-filtered verifier at
    * λ̂, emitting its result pairs (id1 < id2).
    */
  def bucketStep(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
                 stats: StatsSink, emit: (Long, Long, Double) => Unit): Unit =
    if (bucket.length >= 2)
      Verification.bruteForcePairs(bucket, lambda, Sketch.lambdaHat(lambda, p.sketchBits, p.delta),
        p.sketchBits, stats, emit)

  /** One repetition: split into buckets, brute-force each bucket. */
  def runRep(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, k: Int, rep: Int,
             p: CPSParams, stats: StatsSink, emit: (Long, Long, Double) => Unit): Unit = {
    val coords = repCoordinates(p.t, k, p.seed, rep)
    val buckets = mutable.HashMap.empty[Long, mutable.ArrayBuffer[EmbeddedRec]]
    for (r <- recs) buckets.getOrElseUpdate(bucketKey(r.mh, coords), mutable.ArrayBuffer.empty) += r
    for (bucket <- buckets.valuesIterator) bucketStep(bucket, lambda, p, stats, emit)
  }

  /** Full self-join at recall target φ with the worst-case repetition count
    * (benchmarks instead repeat until measured recall ≥ φ, as in the paper).
    */
  def selfJoin(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, phi: Double = 0.9,
               p: CPSParams = CPSParams(), stats: StatsSink = NullStats,
               kOverride: Option[Int] = None): Map[(Long, Long), Double] = {
    if (recs.length < 2) return Map.empty
    val k = kOverride.getOrElse(chooseK(recs, lambda, phi, p.seed))
    val reps = repetitionsFor(phi, lambda, k)
    val out = mutable.HashMap.empty[(Long, Long), Double]
    val emit = (a: Long, b: Long, s: Double) => { out.update((a, b), s); () }
    var r = 0
    while (r < reps) { runRep(recs, lambda, k, r, p, stats, emit); r += 1 }
    out.toMap
  }
}
