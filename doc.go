// Package prestolite is a from-scratch Go reproduction of "From Batch
// Processing to Real Time Analytics: Running Presto® at Scale" (ICDE 2022):
// a vectorized distributed SQL engine with a connector SPI (predicate /
// projection / limit / aggregation pushdown), a nested columnar file format
// with old and new readers and writers, QuadTree geospatial queries, file
// list and footer caches, a cluster-federation gateway, and an S3 file
// system with lazy seek, exponential backoff, S3 Select and multipart
// upload.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for paper-vs-
// measured results. The public surface lives under internal/ packages and
// the cmd/ binaries; cmd/prestobench regenerates the paper's figures as
// tables, and cmd/e2ebench is the benchmark a change is judged on.
package prestolite
