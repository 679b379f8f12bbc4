package repro.core

import repro.util.Hashing
import repro.util.Hashing.Tabulation64
import java.util.SplittableRandom

/** MinHash embedding and 1-bit minwise sketches (paper §V-A1).
  *
  * Each record x is preprocessed into:
  *  - a vector of `t` MinHash values (the minimizing token per hash
  *    function), used by the Chosen Path splitting step and by MinHash LSH;
  *  - a 1-bit minwise sketch of `sketchWords` 64-bit words, where bit i is a
  *    random 1-bit hash of the i-th (independent) MinHash of x, used for fast
  *    similarity estimation via popcount (Li–König).
  *
  * Hashing: one Zobrist/tabulation hash per token, mixed with a per-function
  * salt through a SplitMix64 finalizer (see `repro.util.Hashing` and
  * DESIGN.md for why this substitution for per-function tabulation is safe).
  */
final class MinHasher(val t: Int, val sketchWords: Int, seed: Long) extends Serializable {
  require(t > 0 && sketchWords >= 0)

  val sketchBits: Int = 64 * sketchWords
  private val nFns: Int = t + sketchBits

  private val tab = new Tabulation64(seed)
  private val fnSalts: Array[Long] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0x5ca1ab1eL))
    Array.fill(nFns)(rng.nextLong())
  }
  private val bitSalts: Array[Long] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0x0ddba11L))
    Array.fill(math.max(1, sketchBits))(rng.nextLong())
  }

  /** Embed a record: (minhash vector of length t, sketch of sketchWords words).
    * Cost: one tabulation hash per token plus (t + sketchBits) mixes per token.
    */
  def embed(tokens: Array[Int]): (Array[Int], Array[Long]) = {
    require(tokens.nonEmpty, "cannot embed an empty set")
    val minVals = Array.fill(nFns)(Long.MaxValue)
    val argmin  = new Array[Int](nFns)
    var ti = 0
    while (ti < tokens.length) {
      val z = tab.hash(tokens(ti))
      var f = 0
      while (f < nFns) {
        val v = Hashing.mix64(z ^ fnSalts(f))
        if (v < minVals(f)) { minVals(f) = v; argmin(f) = tokens(ti) }
        f += 1
      }
      ti += 1
    }
    val mh = java.util.Arrays.copyOfRange(argmin, 0, t)
    val sketch = new Array[Long](sketchWords)
    var b = 0
    while (b < sketchBits) {
      // 1-bit hash g_b of the b-th minhash token (paper: bit i = g_i(h_i(x))).
      val bit = Hashing.mix64(tab.hash(argmin(t + b)) ^ bitSalts(b)) & 1L
      sketch(b >>> 6) |= bit << (b & 63)
      b += 1
    }
    (mh, sketch)
  }

  /** MinHash vector only (used by tests on the minwise property). */
  def minhash(tokens: Array[Int]): Array[Int] = embed(tokens)._1
}

/** Fully preprocessed record: original tokens + minhash vector + sketch. */
final case class EmbeddedRec(id: Long, tokens: Array[Int], mh: Array[Int], sketch: Array[Long])

object EmbeddedRec {
  /** Embed every record that has tokens. A record with no tokens is left
    * out, so it takes part in no pair (as in both AllPairs engines); two
    * records with one id are rejected.
    */
  def embedAll(recs: scala.collection.IndexedSeq[SetRec], hasher: MinHasher): Array[EmbeddedRec] = {
    SetRec.requireDistinctIds(recs)
    recs.iterator.filter(_.tokens.nonEmpty).map { r =>
      val (mh, sk) = hasher.embed(r.tokens)
      EmbeddedRec(r.id, r.tokens, mh, sk)
    }.toArray
  }
}
