"""Self-tests of the benchmark's checkers: each accepts a correct output and
rejects a deliberately corrupted one.

    python3 bench/selftest.py          (from the root of the repository)

The file name keeps it out of the repository's pytest collection; it needs
only the standard library, numpy and mhcvse from ``src/``.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mhcvse.evaluation as ev  # noqa: E402
from mhcvse import Tensor, TrainConfig, build_graph, contrastive_loss, kl_loss  # noqa: E402
from mhcvse.data import Dataset, Vocabulary, generate_synthetic  # noqa: E402
from mhcvse.model import Model  # noqa: E402
from mhcvse.training import LrSchedule, lr_at, write_lr_curve  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def unit(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def program_recalls(img, txt, owner):
    """The six recalls and mR as mhcvse.evaluation computes them."""
    s = ev.similarity_matrix(img, txt)
    caps = [np.nonzero(owner == i)[0].tolist() for i in range(len(img))]
    t = [ev.recall_at_k(s, caps, k) for k in ev.RECALL_KS]
    i = [ev.recall_at_k(s.T, [[int(o)] for o in owner], k) for k in ev.RECALL_KS]
    return t + i + [float(np.mean(t + i))]


class Retrieval(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.img, self.txt = unit(rng, 30, 8), unit(rng, 45, 8)
        self.owner = np.concatenate([np.arange(30), rng.integers(30, size=15)])
        self.rng = rng

    def test_recalls(self):
        reported = program_recalls(self.img, self.txt, self.owner)
        self.assertTrue(checks.recalls_match(reported, self.img, self.txt, self.owner))
        for i in range(7):
            bad = list(reported)
            bad[i] += 1.0 / 30
            self.assertFalse(checks.recalls_match(bad, self.img, self.txt, self.owner))

    def test_recalls_notice_a_swapped_caption_owner(self):
        reported = program_recalls(self.img, self.txt, self.owner)
        owner = self.owner.copy()
        owner[[0, 1]] = owner[[1, 0]]
        self.assertFalse(checks.recalls_match(reported, self.img, self.txt, owner))

    def test_chance(self):
        self.assertAlmostEqual(checks.chance_mr(16), 1.0 / 3.0, places=15)
        self.assertAlmostEqual(checks.chance_mr(4), (1 / 4 + 1 + 1) / 3, places=15)

    def test_order(self):
        q = self.img[0]
        scores = ev.similarity_matrix(q[None], self.txt)[0]
        order = ev.rank_candidates(scores[None])[0]
        ref = checks.cosines(q, self.txt)
        self.assertTrue(checks.order_is_sorted(order, ref))
        swapped = order.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        self.assertFalse(checks.order_is_sorted(swapped, ref))
        repeated = order.copy()
        repeated[-1] = repeated[0]
        self.assertFalse(checks.order_is_sorted(repeated, ref))
        self.assertFalse(checks.order_is_sorted(order[:-1], ref))

    def test_rows(self):
        row = self.img[3].copy()
        self.assertTrue(checks.rows_match(row, self.img[3]))
        self.assertTrue(checks.unit_rows(self.img))
        row[2] += 1e-9
        self.assertFalse(checks.rows_match(row, self.img[3]))
        self.assertFalse(checks.unit_rows(row))

    def test_retrieve_output(self):
        ref = checks.cosines(self.img[2], self.txt)
        ids = [1000 + j for j in range(len(self.txt))]
        order = np.argsort(-ref, kind="stable")
        good = [f"{ids[j]}\t{ref[j]:.6f}" for j in order[:5]]
        self.assertTrue(checks.retrieve_output_ok("\n".join(good) + "\n", ref, ids, 5))
        swapped = [good[1], good[0]] + good[2:]
        self.assertFalse(checks.retrieve_output_ok("\n".join(swapped), ref, ids, 5))
        skipped = good[:3] + [good[4], f"{ids[order[5]]}\t{ref[order[5]]:.6f}"]
        self.assertFalse(checks.retrieve_output_ok("\n".join(skipped), ref, ids, 5))
        wrong_score = good[:4] + [f"{ids[order[4]]}\t{ref[order[4]] - 1e-5:.6f}"]
        self.assertFalse(checks.retrieve_output_ok("\n".join(wrong_score), ref, ids, 5))
        self.assertFalse(checks.retrieve_output_ok("\n".join(good[:4]), ref, ids, 5))
        garbled = good[:4] + ["error: no such image"]
        self.assertFalse(checks.retrieve_output_ok("\n".join(garbled), ref, ids, 5))


class Training(unittest.TestCase):
    def test_losses(self):
        rng = np.random.default_rng(1)
        b, d, k = 6, 8, 5
        arrays = [rng.normal(size=(b, d)), rng.normal(size=(b, d)),
                  unit(rng, b, d), unit(rng, b, d), unit(rng, b, d), unit(rng, b, d)]
        for _ in range(2):
            logits = rng.normal(size=(b, k))
            arrays.append(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
        for mode in ("hardest", "sum"):
            ref = checks.loss_terms_from(arrays, 0.2, mode)
            vi, vt = (checks.normalize_rows(a) for a in arrays[:2])
            program = [contrastive_loss(Tensor(x @ y.T), 0.2, mode).item()
                       for x, y in ((vi, vt), (arrays[2], arrays[3]),
                                    (arrays[4], arrays[5]))]
            program.append(kl_loss(Tensor(arrays[7]), Tensor(arrays[6])).item())
            self.assertTrue(checks.losses_match(program, ref))
            for i in range(4):
                bad = list(program)
                bad[i] += 1e-6
                self.assertFalse(checks.losses_match(bad, ref))
            # the KL direction matters
            flipped = program[:3] + [kl_loss(Tensor(arrays[6]), Tensor(arrays[7])).item()]
            self.assertFalse(checks.losses_match(flipped, ref))

    def test_learning_rates(self):
        schedule = LrSchedule(0.006, 0.00006, 20)
        program = [lr_at(schedule, t) for t in range(45)]
        ref = [checks.cosine_lr(0.006, 0.00006, 20, t) for t in range(45)]
        self.assertTrue(checks.lrs_match(program, ref))
        off_by_one = [checks.cosine_lr(0.006, 0.00006, 21, t) for t in range(45)]
        self.assertFalse(checks.lrs_match(program, off_by_one))
        self.assertFalse(checks.lrs_match(program[:-1], ref))

    def test_lr_curve_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lr.csv"
            write_lr_curve(path, LrSchedule(0.006, 0.00006, 20), 60)
            text = path.read_text()
        self.assertTrue(checks.lr_curve_ok(text, 0.006, 0.00006, 20, 60))
        self.assertFalse(checks.lr_curve_ok(text, 0.006, 0.00006, 19, 60))
        lines = text.splitlines()
        lines[7] = lines[7].split(",")[0] + ",0.005"
        self.assertFalse(checks.lr_curve_ok("\n".join(lines), 0.006, 0.00006, 20, 60))
        lines[7] = lines[7].split(",")[0] + ",nan?"
        self.assertFalse(checks.lr_curve_ok("\n".join(lines), 0.006, 0.00006, 20, 60))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(embed_dim=8, feature_dim=5, heads=2, concepts=4, seed=11)
        pool = [f"t{i}" for i in range(10)]
        captions = [(i, i, list(rng.choice(pool, 3, replace=False))) for i in range(6)]
        images = {i: rng.normal(size=(3, 5)) for i in range(6)}
        vocab = Vocabulary.build(t for _, _, t in captions)
        ds = Dataset("train", images, captions, vocab)
        graph = build_graph((t for _, _, t in captions), 4, 8, np.random.default_rng(4))
        model = Model(cfg, vocab, graph, np.random.default_rng(5))
        names = {n: p for n, p in model.named_parameters().items()}
        saved = {n: p.data.copy() for n, p in names.items()}
        entries = workloads._gradient_entries(model, ds.pairs, np.random.default_rng(6))
        self.assertTrue(all(checks.gradient_agrees(a, n) for a, n in entries))
        self.assertFalse(any(checks.gradient_agrees(-a, n) for a, n in entries))
        self.assertTrue(all(np.array_equal(p.data, saved[n]) for n, p in names.items()))


class Files(unittest.TestCase):
    def test_eval_csv(self):
        rows = [0.5, 0.75, 1.0, 0.25, 0.5, 0.875]
        result = ev.RetrievalResult(*rows, float(np.mean(rows)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "eval.csv"
            ev.write_eval_report(path, result)
            text = path.read_text()
        self.assertEqual(checks.parse_eval_csv(text), rows + [result.mr])
        self.assertNotEqual(checks.parse_eval_csv(text.replace("0.875", "0.75")),
                            rows + [result.mr])
        self.assertEqual(checks.parse_eval_csv("garbage\n"), [])
        self.assertEqual(checks.parse_eval_csv(text.replace("0.875", "x")), [])

    def test_same_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b, c = (Path(tmp) / x for x in "abc")
            generate_synthetic(a, 12, f=5, seed=5)
            generate_synthetic(b, 12, f=5, seed=5)
            generate_synthetic(c, 12, f=5, seed=6)
            self.assertTrue(checks.same_files(a, b))
            self.assertFalse(checks.same_files(a, c))
            raw = bytearray((b / "test.features.rgft").read_bytes())
            raw[-1] ^= 1
            (b / "test.features.rgft").write_bytes(bytes(raw))
            self.assertFalse(checks.same_files(a, b))
            (b / "test.features.rgft").unlink()
            self.assertFalse(checks.same_files(a, b))


class Trace(unittest.TestCase):
    def test_scipy_import_parse(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       100 |        100 |     scipy._lib\n"
                "import time:        50 |        150 |   scipy\n"
                "import time:       900 |        900 |     scipy.special\n"
                "import time:       100 |       1000 |   scipy.stats\n"
                "import time:        10 |       1200 | mhcvse.data\n")
        self.assertEqual(workloads.scipy_import_ms(text), 1.15)
        self.assertEqual(workloads.scipy_import_ms(text.replace("scipy", "other")), 0.0)


if __name__ == "__main__":
    unittest.main()
