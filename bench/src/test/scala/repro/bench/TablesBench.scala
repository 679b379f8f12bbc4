package repro.bench

import repro.SparkSpec
import java.nio.file.{Files, Paths}
import java.nio.charset.StandardCharsets

/** Reproduces Tables I–IV, one test per table. Each output is printed and
  * written to bench/results/table{N}.txt for EXPERIMENTS.md. Scale with
  * REPRO_SCALE, dataset subset with REPRO_DATASETS.
  */
class TablesBench extends SparkSpec {
  for ((n, title, ok) <- Seq[(Int, String, String => Boolean)](
         (1, "Table I — dataset statistics", _.linesIterator.size > Harness.selectedDatasets.size),
         (2, "Table II — join times at >=90% recall", _.linesIterator.size >= 2),
         (3, "Table III — parameters and sensitivity sweep", _.contains("limit")),
         (4, "Table IV — candidate statistics", _.linesIterator.size >= 2)))
    test(title) {
      val out = Tables.table(n, spark, Harness.scale)
      println(out)
      Files.createDirectories(Paths.get("results"))
      Files.write(Paths.get(s"results/table$n.txt"), out.getBytes(StandardCharsets.UTF_8))
      assert(ok(out))
    }
}
