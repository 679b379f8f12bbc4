package repro.perfbench

import repro.core._
import repro.util.Hashing
import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable

/** Benchmark-owned `StatsSink`: the Table IV counters of one engine call. */
final class Counts extends StatsSink {
  var pre = 0L
  var cand = 0L
  var res = 0L
  override def preCandidates(n: Long): Unit = pre += n
  override def candidates(n: Long): Unit = cand += n
  override def results(n: Long): Unit = res += n
  def same(o: Counts): Boolean = pre == o.pre && cand == o.cand && res == o.res
  override def toString = s"pre=$pre cand=$cand res=$res"
}

/** In-memory span log: name, start, end (nanoTime) and parent span id.
  * Span 0 is a virtual root; `write` dumps all spans as JSON lines.
  */
final class Spans {
  private var n = 1
  private var parent = new Array[Int](1024)
  private var name = new Array[Int](1024)
  private var start = new Array[Long](1024)
  private var end = new Array[Long](1024)
  private val names = mutable.ArrayBuffer("root")
  private val nameIds = mutable.HashMap("root" -> 0)

  private def grow(): Unit = {
    val c = parent.length * 2
    parent = java.util.Arrays.copyOf(parent, c)
    name = java.util.Arrays.copyOf(name, c)
    start = java.util.Arrays.copyOf(start, c)
    end = java.util.Arrays.copyOf(end, c)
  }

  /** Record a finished span; returns its id. */
  def add(spanName: String, parentId: Int, startNs: Long, endNs: Long): Int = {
    if (n == parent.length) grow()
    val id = n
    parent(id) = parentId
    name(id) = nameIds.getOrElseUpdate(spanName, { names += spanName; names.length - 1 })
    start(id) = startNs
    end(id) = endNs
    n += 1
    id
  }

  def open(spanName: String, parentId: Int): Int = add(spanName, parentId, System.nanoTime(), 0L)
  def close(id: Int): Unit = end(id) = System.nanoTime()

  def count: Int = n - 1

  def write(path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      var i = 1
      while (i < n) {
        w.write(s"""{"id":$i,"parent":${parent(i)},"name":"${names(name(i))}","start_ns":${start(i)},"end_ns":${end(i)}}""")
        w.newLine()
        i += 1
      }
    } finally w.close()
  }
}

/** Shape and time of the Chosen Path trees explored by the traced copy. */
final class TreeStats {
  var nodes = 0L
  var leafNodes = 0L
  var depthMax = 0
  var bruteforcedRecs = 0L
  var splitRecs = 0L
  var leafNs = 0L
  var filterNs = 0L
  private var sizes = new Array[Int](1024)

  def node(size: Int, depth: Int, leaf: Boolean, survivors: Int, ns: Long): Unit = {
    if (nodes == sizes.length) sizes = java.util.Arrays.copyOf(sizes, sizes.length * 2)
    sizes(nodes.toInt) = size
    nodes += 1
    depthMax = math.max(depthMax, depth)
    if (leaf) { leafNodes += 1; leafNs += ns; bruteforcedRecs += size }
    else { filterNs += ns; bruteforcedRecs += size - survivors }
    if (survivors >= 2) splitRecs += survivors
  }

  def bucketP50: Double = {
    if (nodes == 0) return 0.0
    val s = java.util.Arrays.copyOf(sizes, nodes.toInt)
    java.util.Arrays.sort(s)
    s(s.length / 2).toDouble
  }
  def bucketMax: Double = if (nodes == 0) 0.0 else sizes.iterator.take(nodes.toInt).max.toDouble
}

/** A copy of `CPSJoinLocal.runRep` driven from outside through its public
  * node functions (`bruteForceStep`, `splitCoordinates`, `childSeed`), with
  * a span per tree node. Accepted only while it reproduces `runRep`'s pairs
  * and counters exactly (see `Checks.tracedCopy`).
  */
object TracedCP {

  /** Root seed of repetition `rep`, as `runRep` derives it. */
  def rootSeed(p: CPSParams, rep: Int): Long = Hashing.mix64(p.seed + 0x9e3779b9L * (rep + 1))

  def runRep(recs: IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, rep: Int,
             stats: StatsSink, emit: (Long, Long, Double) => Unit,
             tree: TreeStats, spans: Spans, parentSpan: Int): Unit = {
    def recurse(bucket: IndexedSeq[EmbeddedRec], nodeSeed: Long, depth: Int, parent: Int): Unit = {
      if (bucket.length < 2) return
      val effective = if (depth >= p.maxDepth) p.copy(limit = Int.MaxValue) else p
      val span = spans.open("cp.node", parent)
      val t0 = System.nanoTime()
      val survivors = CPSJoinLocal.bruteForceStep(bucket, lambda, effective, nodeSeed, stats, emit)
      tree.node(bucket.length, depth, bucket.length <= effective.limit, survivors.length, System.nanoTime() - t0)
      if (survivors.length >= 2) {
        for (c <- CPSJoinLocal.splitCoordinates(nodeSeed, p.t, lambda)) {
          val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[EmbeddedRec]]
          for (x <- survivors) children.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x
          for ((v, child) <- children if child.length >= 2)
            recurse(child.toIndexedSeq, CPSJoinLocal.childSeed(nodeSeed, c, v), depth + 1, span)
        }
      }
      spans.close(span)
    }
    recurse(recs, rootSeed(p, rep), 0, parentSpan)
  }
}

/** Exact reference join that shares no code with the engines: overlap
  * counting over every token's full posting list, no prefix or size filter.
  */
object ReferenceJoin {
  def selfJoin(recs: IndexedSeq[SetRec], lambda: Double): Map[(Long, Long), Double] = {
    val postings = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    val overlap = new Array[Int](recs.length)
    val touched = new Array[Int](recs.length)
    val out = Map.newBuilder[(Long, Long), Double]
    var xi = 0
    while (xi < recs.length) {
      val x = recs(xi)
      var nTouched = 0
      for (tok <- x.tokens; list <- postings.get(tok); yi <- list) {
        if (overlap(yi) == 0) { touched(nTouched) = yi; nTouched += 1 }
        overlap(yi) += 1
      }
      var k = 0
      while (k < nTouched) {
        val yi = touched(k)
        val y = recs(yi)
        val inter = overlap(yi)
        val sim = inter.toDouble / (x.tokens.length + y.tokens.length - inter)
        if (sim >= lambda) out += (((math.min(x.id, y.id), math.max(x.id, y.id)), sim))
        overlap(yi) = 0
        k += 1
      }
      for (tok <- x.tokens) postings.getOrElseUpdate(tok, mutable.ArrayBuffer.empty) += xi
      xi += 1
    }
    out.result()
  }
}
