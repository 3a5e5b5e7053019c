#!/usr/bin/env bash
# Byte-for-byte checks of the installed `wbcrescue` console script. The tests
# call cli.run from src/; this runs the entry point that `pip install` puts on
# PATH, outside the checkout. CI runs it on Linux, where cli.run tunes glibc's
# allocator, and on macOS, where it does not.
#
#   bash .github/cli-checks.sh    # needs `wbcrescue` and `python3` on PATH
set -eo pipefail
cd "$(mktemp -d)"
wbcrescue --help
# Importing the CLI adds neither the thread pool's modules nor dataclasses
# beyond what argparse, array, csv and NumPy load: a command loads the pool
# only when it starts one.
python3 -c '
import sys, argparse, array, csv, numpy
baseline = set(sys.modules)
import wbcrescue.cli
added = sorted({"concurrent.futures", "logging", "dataclasses"} & set(sys.modules) - baseline)
sys.exit(f"::error::import wbcrescue.cli loaded {added}" if added else None)'
printf 'image_id,label\na,SNE\nb,LY\n' > pred.csv
printf 'image_id,label\na,SNE\nb,SNE\n' > truth.csv
wbcrescue evaluate --pred pred.csv --truth truth.csv --out report.txt 2> quiet.err
cat report.txt
test ! -s quiet.err || { echo "::error::a quiet run wrote to stderr"; cat quiet.err; exit 1; }
wbcrescue --verbose evaluate --pred pred.csv --truth truth.csv --out report.txt 2> verbose.err
cat verbose.err
grep -q "INFO wbcrescue: macro_f1" verbose.err \
  || { echo "::error::--verbose wrote no macro_f1 line to stderr"; exit 1; }
# Each join pairs rows by id: the second fold and the truth file
# list their rows in another order than the first file.
printf 'SNE\nLY\n' > labels.txt
printf 'image_id,SNE,LY\na,0.25,0.75\nb,0.5,0.5\n' > fold1.csv
printf 'image_id,SNE,LY\nb,1,0\na,0.75,0.25\n' > fold2.csv
wbcrescue ensemble fold1.csv fold2.csv --labels labels.txt --out mean.csv
printf 'image_id,SNE,LY\na,0.5,0.5\nb,0.75,0.25\n' | diff - mean.csv
# CRLF row ends and a last row without one are both read in bulk;
# the mean is written with `\n` ends.
printf 'image_id,SNE,LY\r\na,0.25,0.75\r\nb,0.5,0.5\r\n' > crlf.csv
printf 'image_id,SNE,LY\nb,1,0\na,0.75,0.25' > unterminated.csv
wbcrescue ensemble crlf.csv unterminated.csv --labels labels.txt --out plain-mean.csv
printf 'image_id,SNE,LY\na,0.5,0.5\nb,0.75,0.25\n' | diff - plain-mean.csv
# Ids that need quoting are written by the package's own rule, the
# same bytes on every Python of the matrix.
printf 'image_id,SNE,LY\n"a,b",0.25,0.75\n"q""x",0.5,0.5\n' > quoted1.csv
printf 'image_id,SNE,LY\n"q""x",1,0\n"a,b",0.75,0.25\n' > quoted2.csv
wbcrescue ensemble quoted1.csv quoted2.csv --labels labels.txt --out quoted-mean.csv
printf 'image_id,SNE,LY\n"a,b",0.5,0.5\n"q""x",0.75,0.25\n' | diff - quoted-mean.csv
# The mean of two 2049-row folds crosses two of the table writer's
# 1024-row chunk edges. Every value is a multiple of 2^-12, so each
# mean is exact.
python3 -c 'import sys; sys.stdout.write("image_id,SNE,LY\n" + "".join(f"r{i:04d},{i / 4096!r},{1 - i / 4096!r}\n" for i in range(2049)))' > big1.csv
python3 -c 'import sys; sys.stdout.write("image_id,SNE,LY\n" + "".join(f"r{i:04d},{i * i % 4096 / 4096!r},{1 - i * i % 4096 / 4096!r}\n" for i in range(2048, -1, -1)))' > big2.csv
wbcrescue ensemble big1.csv big2.csv --labels labels.txt --out big-mean.csv
python3 -c 'import sys; sys.stdout.write("image_id,SNE,LY\n" + "".join("r%04d,%.12g,%.12g\n" % (i, m, 1 - m) for i in range(2049) for m in [(i + i * i % 4096) / 8192]))' \
  | diff - big-mean.csv
# Two identical folds, so each mean is the row as parsed: its cells divided
# by their sum. They hold 0 and 1, both sides of 1e-4, the value just below
# 0.1, a tie at the 12th digit and one value per decade, on either side of
# where the table writer stops rendering from its digit tables. The
# expected rows come from Python's own `%.12g`.
python3 -c '
import numpy
values = [0.0, 1.0, 5e-05, 1e-4, float(numpy.nextafter(0.1, 0)), (123456789012 + 0.5) / 10**12,
          *(0.123456789012345 / 10**lead for lead in range(5))]
rows = [(f"e{i}", v, 1 - v) for i, v in enumerate(values)]
with open("edge1.csv", "w") as fold:
    fold.write("image_id,SNE,LY\n" + "".join(f"{i},{a!r},{b!r}\n" for i, a, b in rows))
with open("edge-expected.csv", "w") as expected:
    expected.write("image_id,SNE,LY\n" + "".join(
        "%s,%.12g,%.12g\n" % (i, a / (a + b), b / (a + b)) for i, a, b in rows))'
cp edge1.csv edge2.csv
wbcrescue ensemble edge1.csv edge2.csv --labels labels.txt --out edge-mean.csv
diff edge-expected.csv edge-mean.csv
printf 'image_id,label\nb,LY\na,SNE\n' > truth-reordered.csv
wbcrescue evaluate --pred pred.csv --truth truth-reordered.csv --labels labels.txt \
  --out report.txt --confusion confusion.csv
printf 'true\\pred,SNE,LY\nSNE,1,0\nLY,0,1\n' | diff - confusion.csv
# A 200-character id is read like any other and comes out byte for byte.
long_id=$(python3 -c 'print("x" * 200)')
printf 'image_id,SNE,LY\n%s,0.25,0.75\nb,0.5,0.5\n' "$long_id" > long1.csv
printf 'image_id,SNE,LY\nb,1,0\n%s,0.75,0.25\n' "$long_id" > long2.csv
wbcrescue ensemble long1.csv long2.csv --labels labels.txt --out long-mean.csv
printf 'image_id,SNE,LY\n%s,0.5,0.5\nb,0.75,0.25\n' "$long_id" | diff - long-mean.csv
# A blank line in a label file is skipped: the report is the same as
# without it.
printf 'image_id,label\na,SNE\n\nb,SNE\n' > truth-blank.csv
wbcrescue evaluate --pred pred.csv --truth truth.csv --out report-plain.txt
wbcrescue evaluate --pred pred.csv --truth truth-blank.csv --out report-blank.txt
diff report-plain.txt report-blank.txt
# A 40-character non-ASCII id (100 UTF-8 bytes) in both label files, in
# another row order in each, gives the same report as the id `a`.
wide_id=$(python3 -c 'import sys; sys.stdout.buffer.write(("\u00e9" * 20 + "\u7d30" * 20).encode())')
printf 'image_id,label\n%s,SNE\nb,LY\n' "$wide_id" > pred-wide.csv
printf 'image_id,label\nb,SNE\n%s,SNE\n' "$wide_id" > truth-wide.csv
wbcrescue evaluate --pred pred-wide.csv --truth truth-wide.csv --out report-wide.txt
diff report-plain.txt report-wide.txt
# A plain table with a bad row exits 1, naming the file and line, and
# writes nothing.
printf 'image_id,SNE,LY\na,0.5,0.5\nb,0.5,0.4\n' > bad-row.csv
status=0
wbcrescue ensemble bad-row.csv fold1.csv --labels labels.txt --out bad-mean.csv 2> bad-row.err \
  || status=$?
cat bad-row.err
test "$status" = 1 || { echo "::error::a table with a bad row exited $status, not 1"; exit 1; }
grep -q "bad-row.csv:3: probability sum out of tolerance (got 0.900000)" bad-row.err \
  || { echo "::error::the bad row error did not name its file and line"; exit 1; }
test ! -e bad-mean.csv || { echo "::error::a rejected table left a mean behind"; exit 1; }
# One row per early phase: a has no rare candidate, the verifier
# rejects b, and c reaches the shape filters with no --images, so
# --skip-missing denies it as a missing sample.
printf 'SNE\nLY\nPLY\nPC\n' > rare-labels.txt
printf 'class,count\nSNE,100\nLY,100\nPLY,10\nPC,10\n' > counts.csv
printf 'image_id,SNE,LY,PLY,PC\na,0.75,0.125,0.0625,0.0625\nb,0.125,0.5,0.25,0.125\nc,0.125,0.5,0.25,0.125\n' > swin.csv
printf 'image_id,SNE,LY,PLY,PC\na,0.75,0.125,0.0625,0.0625\nb,0.25,0.5,0.125,0.125\nc,0.125,0.125,0.75,0\n' > med.csv
wbcrescue rescue --swin swin.csv --med med.csv --counts counts.csv --labels rare-labels.txt \
  --skip-missing --out rescued.csv --trace trace.csv
printf 'image_id,label\na,SNE\nb,LY\nc,LY\n' | diff - rescued.csv
printf 'image_id,base,candidate,phase,spikiness,mahalanobis,final\na,SNE,,NoCandidate,,,SNE\nb,LY,PLY,FailedSemantic,,,LY\nc,LY,PLY,FailedMorphology,,,LY\n' \
  | diff - trace.csv
# Ids that need quoting come out of rescue as they went in: "a,b" has
# no rare candidate, and "q""x" reaches the shape filters and is denied
# as a missing sample.
printf 'image_id,SNE,LY,PLY,PC\n"a,b",0.75,0.125,0.0625,0.0625\n"q""x",0.125,0.5,0.25,0.125\n' > swin-quoted.csv
printf 'image_id,SNE,LY,PLY,PC\n"a,b",0.75,0.125,0.0625,0.0625\n"q""x",0.125,0.125,0.75,0\n' > med-quoted.csv
wbcrescue rescue --swin swin-quoted.csv --med med-quoted.csv --counts counts.csv \
  --labels rare-labels.txt --skip-missing --out rescued-quoted.csv --trace trace-quoted.csv
printf 'image_id,label\n"a,b",SNE\n"q""x",LY\n' | diff - rescued-quoted.csv
printf 'image_id,base,candidate,phase,spikiness,mahalanobis,final\n"a,b",SNE,,NoCandidate,,,SNE\n"q""x",LY,PLY,FailedMorphology,,,LY\n' \
  | diff - trace-quoted.csv
# A gate file with a key the format does not define exits 1, naming the
# line, and writes no predictions.
printf 'mean = 0 0 0\ncov = 1 0 0 0 1 0 0 0 1\nridge = 0\nn = 30\nbogus = 1 2 3\n' > bad.gate
status=0
wbcrescue rescue --swin swin.csv --med med.csv --counts counts.csv --labels rare-labels.txt \
  --gate bad.gate --skip-missing --out gated.csv 2> gate.err || status=$?
cat gate.err
test "$status" = 1 || { echo "::error::a gate file with an unknown key exited $status, not 1"; exit 1; }
grep -q "bad.gate:5: unknown gate key 'bogus'" gate.err \
  || { echo "::error::the unknown gate key error did not name its line"; exit 1; }
test ! -e gated.csv || { echo "::error::a rejected gate file left predictions behind"; exit 1; }
# Three equally spaced RGB levels, 109 px each: under fsum both thresholds cost
# the same, and the lower one wins at this size as at any other, so
# the nucleus is one level and nc_ratio is 0.5.
mkdir images masks
python3 -c 'import sys; sys.stdout.buffer.write(b"P6\n327 1\n255\n" + b"".join(bytes((164 + 4 * k, 26 + 13 * k, 159 + 22 * k)) * 109 for k in range(3)))' > images/tie.ppm
python3 -c 'import sys; sys.stdout.buffer.write(b"P5\n327 1\n255\n" + b"\xff" * 327)' > masks/tie.pgm
wbcrescue features --images images --masks masks --out features.csv
cat features.csv
test "$(tail -n 1 features.csv | cut -d, -f2)" = 0.5 \
  || { echo "::error::the 327 px three-level cell did not split at the lower threshold"; exit 1; }
# A failed inject-noise leaves the copies of an earlier run byte for byte,
# and no temporary file: no copy replaces its target until all are written.
mkdir clean
for i in 0 1; do
  python3 -c 'import sys; sys.stdout.buffer.write(b"P6\n4 4\n255\n" + bytes(range(int(sys.argv[1]), 256, 5))[:48])' "$i" > "clean/n$i.ppm"
done
wbcrescue inject-noise --images clean --out noisy --density 0.5 --seed 1
cp noisy/n0.ppm first-n0.ppm
cp noisy/n1.ppm first-n1.ppm
head -c 20 clean/n1.ppm > short.ppm
mv short.ppm clean/n1.ppm
status=0
wbcrescue inject-noise --images clean --out noisy --density 0.5 --seed 2 2> inject.err || status=$?
cat inject.err
test "$status" = 1 || { echo "::error::inject-noise over a truncated image exited $status, not 1"; exit 1; }
cmp first-n0.ppm noisy/n0.ppm && cmp first-n1.ppm noisy/n1.ppm \
  || { echo "::error::a failed inject-noise changed a copy of the earlier run"; exit 1; }
test -z "$(find noisy -name '*.tmp*')" \
  || { echo "::error::a failed inject-noise left a temporary file"; exit 1; }
