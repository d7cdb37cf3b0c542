"""The three workloads: train, gallery and cli.

Each workload function takes a :class:`Run`, sets up several times (the
median is ``setup_s``), repeats whole measured passes within the run's
seconds, then checks the outputs of every pass outside the timed
region. With a tracer the passes are repeated traced afterwards and the
per-layer totals come from those.
"""

from __future__ import annotations

import contextlib
import io
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mhcvse
import mhcvse.cli
import mhcvse.data
import mhcvse.evaluation
import mhcvse.model
import mhcvse.training
from mhcvse import Model, Tape, TrainConfig, build_graph
from mhcvse.data import STOPWORDS, DatasetManifest, Vocabulary

import checks
from tracer import Tracer

SETUP_REPEATS = 3

# train: the canonical run of the README quick start
CANONICAL_PAIRS = 96
CANONICAL_SEED = 7
TARGET_MR = 0.9          # validation mR the canonical run passes at epoch 11 of 22
GRAD_ENTRIES = 6
CHECK_BATCH = 8
GRAD_PARAMS = [
    "encoder.image_proj", "encoder.gru_forward.w_z", "encoder.gru_backward.u_h",
    "attention_image.head0.w_q", "attention_text.w_out", "consensus.gcn.w0",
    "consensus.head_text.predictor", "fusion.weight_net",
]

# gallery: an untrained model over generated items of mixed size, shaped
# after Flickr30k where a source exists (README "Gallery make-up")
GALLERY_IMAGES = 64
CAPTIONS_PER_IMAGE = 5         # Flickr30k: five captions per image
GALLERY_REGIONS = (10, 100)    # adaptive bottom-up features: 10 to 100 regions
GALLERY_LENGTH = (6, 19)       # tokens per caption, mean 12.5 (Flickr30k ~12.3)
GALLERY_VOCAB = 2000           # placeholder
GALLERY_TOKENS = [f"g{i:04d}" for i in range(GALLERY_VOCAB)]
GALLERY_ZIPF = 1.0             # token frequency ~ rank ** -1, Zipf's law
T2I_QUERIES_PER_LENGTH = 4     # text->image queries per caption length per pass

# cli
CLI_TRAIN_CONFIG = "epochs = 1\npatience = 1\n"
RETRIEVE_K = 5
LR_PERIOD, LR_STEPS = 20, 60


class Run:
    """Counts operations and checks, and holds what the workload measured."""

    def __init__(self, seed: int, seconds: float, work: Path, root: Path,
                 trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.root = root
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.tracer: Tracer | None = None
        self._dirs = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one operation, and a failed one unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def repeat(self, one_pass, at_least: int = 1) -> list:
        """Whole passes, at least ``at_least``, and more only while one more
        pass of the mean length so far still ends within ``seconds``."""
        out = []
        start = time.perf_counter()
        while len(out) < at_least or (
                (time.perf_counter() - start) * (len(out) + 1) / len(out) <= self.seconds):
            out.append(one_pass())
        return out

    def traced(self, prepare, one_pass, layers) -> list:
        """Repeat ``one_pass(prepare())`` under the tracer, at least twice.

        ``layers(view)`` turns the spans of one pass into per-layer metrics,
        where ``view(within=None)`` gives that pass's span totals; the
        medians over passes are kept. Every exact count (calls and tape
        nodes per span name) must repeat from pass to pass.
        """
        tracer = self.tracer = Tracer().install()
        bounds = []
        try:
            def one():
                prepared = prepare()
                since = len(tracer.spans)
                result = one_pass(prepared)
                bounds.append((since, len(tracer.spans)))
                return result
            results = self.repeat(one, at_least=2)
        finally:
            tracer.uninstall()
        signatures, rows = [], []
        for since, end in bounds:
            def view(within=None):
                return tracer.totals(since, end, within)
            signatures.append(exact_counts(view()))
            rows.append(layers(view))
        self.check(all(s == signatures[0] for s in signatures),
                   "exact trace counts differ between passes")
        for name in rows[0]:
            self.metrics[name] = statistics.median(r[name] for r in rows)
        return results


def _get(tot: dict, name: str, field: str) -> float:
    return tot.get(name, {}).get(field, 0)


# span name -> metric prefix separator: encoders.image_ms, attention.ms
BLOCKS = {"encoders.image": "_", "encoders.text": "_", "attention": ".",
          "consensus.head": "_", "fusion": ".", "losses": "."}


def block_metrics(tot: dict, per: float) -> dict:
    """Time, node and call totals of the model blocks, divided by ``per``."""
    out = {}
    for span, sep in BLOCKS.items():
        out[f"{span}{sep}ms"] = 1e3 * _get(tot, span, "s") / per
        out[f"{span}{sep}nodes"] = _get(tot, span, "nodes") / per
    out["encoders.image_calls"] = _get(tot, "encoders.image", "calls") / per
    out["encoders.text_calls"] = _get(tot, "encoders.text", "calls") / per
    out["consensus.gcn_ms"] = 1e3 * _get(tot, "consensus.gcn", "s") / per
    out["consensus.gcn_calls"] = _get(tot, "consensus.gcn", "calls") / per
    out["autodiff.tape_nodes"] = _get(tot, "autodiff.forward", "nodes") / per
    for name in ("forward", "backward", "adam"):
        out[f"autodiff.{name}_ms"] = 1e3 * _get(tot, f"autodiff.{name}", "s") / per
    return out


def pass_metrics(tot: dict, per: float) -> dict:
    """Layer metrics outside the model blocks, divided by ``per``."""
    ms = {"model.save_ms": "model.save", "model.load_ms": "model.load",
          "data.load_dataset_ms": "data.load_dataset",
          "evaluation.rank_ms": "evaluation.rank"}
    out = {k: 1e3 * _get(tot, v, "s") / per for k, v in ms.items()}
    out["model.embed_dataset_s"] = _get(tot, "model.embed_dataset", "s") / per
    return out


def exact_counts(tot: dict) -> dict:
    return {f"{name}.{field}": v[field] for name, v in sorted(tot.items())
            for field in ("calls", "nodes")}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def checkpoint_kb(ckpt: Path) -> float:
    """Size of a checkpoint and its ``.meta.json`` sidecar."""
    return (ckpt.stat().st_size + Path(f"{ckpt}.meta.json").stat().st_size) / 1024.0


def model_for(train_ds, cfg: TrainConfig) -> Model:
    """Graph and model seeded exactly as ``mhcvse train`` seeds them."""
    graph = build_graph((tokens for _, _, tokens in train_ds.captions),
                        cfg.concepts, cfg.embed_dim,
                        np.random.default_rng(cfg.seed), STOPWORDS)
    return Model(cfg, train_ds.vocab, graph)


def batches(n_pairs: int, batch_size: int) -> list[int]:
    """Sizes of the optimizer steps of one epoch: every chunk of at least
    two pairs, since a ranking loss needs negatives."""
    sizes = [min(batch_size, n_pairs - s) for s in range(0, n_pairs, batch_size)]
    return [b for b in sizes if b >= 2]


# ---------------------------------------------------------------------------
# train

def _train_setup(run: Run):
    out = run.fresh_dir("train")
    manifests = mhcvse.data.generate_synthetic(
        out, n_pairs=CANONICAL_PAIRS, seed=CANONICAL_SEED)
    train = mhcvse.data.load_dataset(manifests[0])
    val = mhcvse.data.load_dataset(manifests[1], vocab=train.vocab)
    test = mhcvse.data.load_dataset(manifests[2], vocab=train.vocab)
    return out, train, val, test, model_for(train, TrainConfig())


def _fit_pass(setup):
    """One fit as ``mhcvse train`` runs it, then save_model."""
    out, train, val, test, model = setup
    evals = []

    def eval_fn(m):
        begin = time.perf_counter()
        mr = mhcvse.training.evaluate(m, val).mr
        evals.append((begin, time.perf_counter(), mr))
        return mr

    start = time.perf_counter()
    result = mhcvse.training.fit(model, train, val, eval_fn)
    mhcvse.model.save_model(out / "checkpoint.mhcv", model)
    wall = time.perf_counter() - start
    fit_s = evals[-1][1] - start
    val_s = sum(e - b for b, e, _ in evals)
    steps = batches(len(train.pairs), model.config.batch_size)
    return dict(out=out, train=train, val=val, test=test, model=model,
                result=result, wall=wall,
                pairs_per_s=len(result.history) * sum(steps) / (fit_s - val_s),
                reached_target=any(mr >= TARGET_MR for _, _, mr in evals),
                steps=len(result.history) * len(steps))


def _check_training(run: Run, p: dict) -> None:
    model, result, cfg = p["model"], p["result"], p["model"].config
    test, val, train = p["test"], p["val"], p["train"]
    run.check(p["reached_target"],
              f"validation mR never reached {TARGET_MR}")
    chance = checks.chance_mr(len(test.images))
    for level, floor in (("fused", 2.0), ("instance", 2.0), ("consensus", 1.5)):
        r = mhcvse.evaluation.evaluate(model, test, level)
        reported = [r.text_r1, r.text_r5, r.text_r10,
                    r.image_r1, r.image_r5, r.image_r10, r.mr]
        if level != "consensus":
            img, txt, _, owner = model.embed_dataset(test, level)
            run.check(checks.recalls_match(reported, img, txt, owner),
                      f"test recalls at {level} level differ from brute force")
        run.check(r.mr >= floor * chance,
                  f"test mR {r.mr:.4f} at {level} level below {floor} x chance {chance:.4f}")
    run.check(mhcvse.evaluation.evaluate(model, val).mr == result.best_mr,
              "restored model does not score FitResult.best_mr on validation")

    sizes = batches(len(train.pairs), cfg.batch_size)
    period = len(sizes) * cfg.period_epochs
    expected = [checks.cosine_lr(cfg.eta0, cfg.eta_min, period, len(sizes) * e - 1)
                for e in range(1, len(result.history) + 1)]
    run.check(checks.lrs_match([s.lr for s in result.history], expected),
              "logged learning rates differ from the closed-form cosine")

    rng = np.random.default_rng(run.seed)
    batch = [train.pairs[i] for i in rng.choice(len(train.pairs), CHECK_BATCH,
                                                replace=False)]
    emb = model.batch_forward(batch)
    arrays = [t.data for t in (emb.v_image, emb.v_text, emb.c_image, emb.c_text,
                               emb.f_image, emb.f_text, emb.p_image, emb.p_text)]
    ref = checks.loss_terms_from(arrays, cfg.margin, cfg.contrastive_mode)
    terms = model.loss_terms(batch)
    run.check(checks.losses_match(
        [*terms.values(), terms.total.item()],
        ref + [checks.weighted_total(ref, cfg.base_weights)]),
        "loss terms differ from the numpy recomputation")
    entries = _gradient_entries(model, batch, rng)
    run.check(all(checks.gradient_agrees(a, n) for a, n in entries),
              "Tape.backward disagrees with central differences")

    loaded = mhcvse.model.load_model(p["out"] / "checkpoint.mhcv")
    saved = model.state_tensors()
    run.check(all(np.array_equal(t.data, saved[n].data)
                  and t.data.dtype == saved[n].data.dtype
                  for n, t in loaded.state_tensors().items())
              and loaded.state_tensors().keys() == saved.keys(),
              "load_model does not give back the saved parameters")


def _gradient_entries(model: Model, batch, rng) -> list[tuple[float, list[float]]]:
    """Backward gradients of a few seeded entries, each with central
    differences of the same weighted sum at two step sizes, the dynamic
    weights held fixed."""
    params = model.named_parameters()
    with Tape() as tape:
        terms = model.loss_terms(batch)
    grads = tape.backward(terms.total)
    lambdas = terms.effective_weights

    def objective():
        return sum(l * v for l, v in zip(lambdas, model.loss_terms(batch).values()))

    out = []
    for name in rng.choice(GRAD_PARAMS, GRAD_ENTRIES, replace=False):
        p = params[str(name)]
        flat = int(rng.integers(p.data.size))
        idx = np.unravel_index(flat, p.data.shape)
        analytic = float(grads.get(p, np.zeros_like(p.data))[idx])
        numeric = []
        for h in (1e-6, 1e-5):
            keep = p.data[idx]
            p.data[idx] = keep + h
            up = objective()
            p.data[idx] = keep - h
            down = objective()
            p.data[idx] = keep
            numeric.append((up - down) / (2 * h))
        out.append((analytic, numeric))
    return out


def train(run: Run) -> None:
    setups = []
    setup_s = []
    for _ in range(SETUP_REPEATS):
        s, dt = timed(_train_setup, run)
        setups.append(s)
        setup_s.append(dt)

    passes = run.repeat(
        lambda: _fit_pass(setups.pop() if setups else _train_setup(run)))
    for p in passes:
        run.attempted += p["steps"]
    _check_training(run, passes[-1])
    m = run.metrics
    m["setup_s"] = statistics.median(setup_s)
    m["wall_s"] = statistics.median(p["wall"] for p in passes)
    m["items_per_s"] = statistics.median(p["pairs_per_s"] for p in passes)
    m["checkpoint_kb"] = checkpoint_kb(passes[-1]["out"] / "checkpoint.mhcv")
    m["peak_rss_mb"] = rss_mb()

    if run.trace:
        def layers(view):
            steps = view("training.epoch")
            tot = view()
            epochs = _get(tot, "training.epoch", "calls")
            out = block_metrics(steps, _get(steps, "autodiff.adam", "calls"))
            out.update(pass_metrics(tot, 1))
            out["training.epochs"] = epochs
            out["training.epoch_s"] = _get(tot, "training.epoch", "s") / epochs
            out["training.val_eval_s"] = (_get(tot, "training.val_eval", "s")
                                          / _get(tot, "training.val_eval", "calls"))
            return out
        traced = run.traced(lambda: _train_setup(run), _fit_pass, layers)
        for p in traced:
            run.attempted += p["steps"]
        _check_training(run, traced[-1])
        run.metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - m["wall_s"])


# ---------------------------------------------------------------------------
# gallery

def gallery_items(seed: int):
    """Region features of GALLERY_IMAGES images and CAPTIONS_PER_IMAGE
    captions of each, from ``seed``.

    The multisets of region counts (evenly spaced over GALLERY_REGIONS) and
    caption lengths (each value of GALLERY_LENGTH equally often, as far as
    the size allows) are the same for every seed; the seed orders them and
    draws features and tokens, so every seed asks for the same work.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, GALLERY_VOCAB + 1, dtype=float) ** -GALLERY_ZIPF
    weights /= weights.sum()
    regions = rng.permutation(np.rint(np.linspace(*GALLERY_REGIONS, GALLERY_IMAGES)))
    lengths = rng.permutation(np.resize(np.arange(GALLERY_LENGTH[0], GALLERY_LENGTH[1] + 1),
                                        GALLERY_IMAGES * CAPTIONS_PER_IMAGE))
    features = {image: rng.normal(size=(int(m), TrainConfig().feature_dim))
                for image, m in enumerate(regions)}
    captions = []
    for caption, length in enumerate(lengths):
        tokens = rng.choice(GALLERY_VOCAB, size=int(length), p=weights)
        captions.append((caption, caption // CAPTIONS_PER_IMAGE,
                         [GALLERY_TOKENS[t] for t in tokens]))
    return features, captions


def _gallery_setup(run: Run):
    out = run.fresh_dir("gallery")
    features, captions = gallery_items(run.seed)
    mhcvse.data.write_features(out / "gallery.features.rgft", features)
    mhcvse.data.write_captions_jsonl(out / "gallery.captions.jsonl", captions)
    DatasetManifest("gallery", "gallery.features.rgft", "gallery.captions.jsonl",
                    len(features), CAPTIONS_PER_IMAGE).save(out / "gallery.manifest.json")
    # the whole token list, as a deployed model's vocabulary would be,
    # so the model's size does not depend on which tokens the seed draws
    ds = mhcvse.data.load_dataset(out / "gallery.manifest.json",
                                  vocab=Vocabulary(GALLERY_TOKENS))
    model = model_for(ds, TrainConfig())
    img, txt, image_ids, owner = model.embed_dataset(ds, "fused")
    return ds, model, img, txt, image_ids, owner


def _gallery_pass(g, picks) -> dict:
    """One evaluate, then a closed loop of single queries alternating
    image->text and text->image."""
    ds, model, img, txt, image_ids, owner = g
    evaluation = mhcvse.evaluation
    image_rows, caption_rows = next(picks)
    start = time.perf_counter()
    result, eval_s = timed(evaluation.evaluate, model, ds, "fused")
    queries = []
    for i in range(max(len(image_rows), len(caption_rows))):
        if i < len(image_rows):
            row = image_rows[i]
            begin = time.perf_counter()
            q = model.embed_image(ds.images[image_ids[row]])
            order = evaluation.rank_candidates(evaluation.similarity_matrix(q[None], txt))[0]
            queries.append(("i2t", row, q, order, time.perf_counter() - begin))
        if i < len(caption_rows):
            row = caption_rows[i]
            begin = time.perf_counter()
            q = model.embed_caption(ds.vocab.encode(ds.captions[row][2]))
            order = evaluation.rank_candidates(evaluation.similarity_matrix(q[None], img))[0]
            queries.append(("t2i", row, q, order, time.perf_counter() - begin))
    return dict(result=result, eval_s=eval_s, queries=queries,
                wall=time.perf_counter() - start)


def _query_picks(seed: int, ds, image_ids):
    """Endless per-pass (image rows, caption rows) query lists.

    Every pass asks each image once and T2I_QUERIES_PER_LENGTH captions of
    each caption length, so passes and seeds differ only in which items are
    asked and in what order, not in how much work they need; within a
    length the seed walks the captions in a fresh order each time round.
    """
    rng = np.random.default_rng([seed, 1])
    lengths = np.array([len(tokens) for _, _, tokens in ds.captions])
    groups = [np.flatnonzero(lengths == v) for v in np.unique(lengths)]
    cycles = [iter(()) for _ in groups]
    while True:
        captions = []
        for k, group in enumerate(groups):
            for _ in range(T2I_QUERIES_PER_LENGTH):
                row = next(cycles[k], None)
                if row is None:
                    cycles[k] = iter(rng.permutation(group).tolist())
                    row = next(cycles[k])
                captions.append(row)
        yield rng.permutation(len(image_ids)).tolist(), rng.permutation(captions).tolist()


def _check_gallery(run: Run, g, passes: list) -> None:
    ds, model, img, txt, image_ids, owner = g
    run.check(checks.unit_rows(img) and checks.unit_rows(txt),
              "fused gallery rows are not unit norm")
    for p in passes:
        r = p["result"]
        run.check(checks.recalls_match([r.text_r1, r.text_r5, r.text_r10, r.image_r1,
                                        r.image_r5, r.image_r10, r.mr], img, txt, owner),
                  "gallery recalls differ from brute force")
        for kind, row, vec, order, _ in p["queries"]:
            own, other = (img, txt) if kind == "i2t" else (txt, img)
            run.check(checks.rows_match(vec, own[row]) and checks.unit_rows(vec),
                      f"{kind} query {row}: single-item embedding differs from "
                      "its embed_dataset row")
            run.check(checks.order_is_sorted(order, checks.cosines(vec, other)),
                      f"{kind} query {row}: ranking is not sorted by cosine")


def gallery(run: Run) -> None:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        g, dt = timed(_gallery_setup, run)
        setup_s.append(dt)
    picks = _query_picks(run.seed, g[0], g[4])
    _gallery_pass(g, picks)   # warm-up: the first pass runs markedly slower
    passes = run.repeat(lambda: _gallery_pass(g, picks))
    n_items = len(g[4]) + len(g[5])
    run.attempted += sum(1 + len(p["queries"]) for p in passes)
    _check_gallery(run, g, passes)
    m = run.metrics
    m["setup_s"] = statistics.median(setup_s)
    m["wall_s"] = statistics.median(p["wall"] for p in passes)
    m["items_per_s"] = statistics.median(n_items / p["eval_s"] for p in passes)
    ckpt = run.fresh_dir("ckpt") / "gallery.mhcv"
    mhcvse.model.save_model(ckpt, g[1])
    m["checkpoint_kb"] = checkpoint_kb(ckpt)
    m["peak_rss_mb"] = rss_mb()

    if run.trace:
        def layers(view):
            tot = view()
            out = block_metrics(tot, 1)
            out.update(pass_metrics(tot, 1))
            return out
        traced = run.traced(lambda: g, lambda g: _gallery_pass(g, picks), layers)
        _check_gallery(run, g, traced)
        run.metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - m["wall_s"])


# ---------------------------------------------------------------------------
# cli

def cli_main(argv: list[str]) -> tuple[int, str, float]:
    """``mhcvse.cli.main(argv)`` in-process: exit code, stdout, seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = mhcvse.cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def _cli_setup(run: Run) -> dict:
    out = run.fresh_dir("cli")
    data, ckpt_dir = out / "data", out / "run"
    config = out / "short.cfg"
    config.write_text(CLI_TRAIN_CONFIG)
    codes = [cli_main(["synth", "--out", str(data), "--pairs", str(CANONICAL_PAIRS),
                       "--seed", str(CANONICAL_SEED)])[0],
             cli_main(["train", "--config", str(config),
                       "--train", str(data / "train.manifest.json"),
                       "--val", str(data / "val.manifest.json"),
                       "--out", str(ckpt_dir)])[0]]
    return dict(out=out, data=data, codes=codes,
                ckpt=ckpt_dir / "checkpoint.mhcv",
                test=data / "test.manifest.json")


def _cli_pass(run: Run, s: dict, test_ids: list[int]) -> dict:
    """The README quick start after training, one command at a time, after
    the ``import mhcvse`` of a fresh interpreter that a user's first
    command pays."""
    out = run.fresh_dir("pass")
    start = time.perf_counter()
    fresh_import(run.root)
    cmds = [("synth", None, cli_main(["synth", "--out", str(out / "data"),
                                      "--pairs", str(CANONICAL_PAIRS),
                                      "--seed", str(CANONICAL_SEED)]))]
    for level in ("fused", "instance", "consensus"):
        cmds.append(("eval", level, cli_main(
            ["eval", "--checkpoint", str(s["ckpt"]), "--manifest", str(s["test"]),
             "--out", str(out / f"eval_{level}.csv"), "--level", level])))
    for image_id in test_ids:
        cmds.append(("retrieve", image_id, cli_main(
            ["retrieve", "--checkpoint", str(s["ckpt"]), "--manifest", str(s["test"]),
             "--image-id", str(image_id), "--k", str(RETRIEVE_K)])))
    cmds.append(("lr-curve", None, cli_main(
        ["lr-curve", "--period", str(LR_PERIOD), "--steps", str(LR_STEPS),
         "--out", str(out / "lr_curve.csv")])))
    return dict(out=out, cmds=cmds, wall=time.perf_counter() - start)


def _check_cli(run: Run, s: dict, passes: list) -> None:
    """Count every command as an operation and check its output."""
    model = mhcvse.model.load_model(s["ckpt"])
    test = mhcvse.data.load_dataset(s["test"], vocab=model.vocab)
    ref = {}
    for level in ("fused", "instance", "consensus"):
        r = mhcvse.evaluation.evaluate(model, test, level)
        ref[level] = [r.text_r1, r.text_r5, r.text_r10,
                      r.image_r1, r.image_r5, r.image_r10, r.mr]
    img, txt, image_ids, _ = model.embed_dataset(test, "fused")
    caption_ids = [cid for cid, _, _ in test.captions]
    cfg = TrainConfig()
    for p in passes:
        for kind, arg, (code, _, _) in p["cmds"]:
            run.check(code == 0, f"{kind} {arg} returned {code}")
        run.check(checks.same_files(s["data"], p["out"] / "data"),
                  "two synth runs with one seed wrote different files")
        run.check(checks.lr_curve_ok((p["out"] / "lr_curve.csv").read_text(),
                                     cfg.eta0, cfg.eta_min, LR_PERIOD, LR_STEPS),
                  "lr-curve rows differ from the closed-form cosine")
        for kind, arg, (code, stdout, _) in p["cmds"]:
            if kind == "eval":
                text = (p["out"] / f"eval_{arg}.csv").read_text()
                run.check(checks.parse_eval_csv(text) == ref[arg],
                          f"eval CSV at {arg} level differs from the library")
            elif kind == "retrieve":
                row = image_ids.index(arg)
                run.check(checks.retrieve_output_ok(
                    stdout, checks.cosines(img[row], txt), caption_ids, RETRIEVE_K),
                    f"retrieve for image {arg} printed a wrong ranking")


def fresh_import(root: Path, flags: tuple[str, ...] = ()) -> str:
    """``import mhcvse`` in a fresh interpreter; returns its stderr."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mhcvse"
    proc = subprocess.run([sys.executable, *flags, "-c", code, str(root / "src")],
                          capture_output=True, text=True, timeout=120, cwd=root)
    if proc.returncode != 0:
        raise RuntimeError(f"import mhcvse failed in a fresh interpreter:\n{proc.stderr}")
    return proc.stderr


def scipy_import_ms(importtime_stderr: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    found = []
    for line in importtime_stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m and (m.group(3) == "scipy" or m.group(3).startswith("scipy.")):
            found.append((len(m.group(2)), int(m.group(1))))
    if not found:
        return 0.0
    top = min(depth for depth, _ in found)
    return sum(us for depth, us in found if depth == top) / 1e3


def cli(run: Run) -> None:
    setups, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        s, dt = timed(_cli_setup, run)
        setups.append(s)
        setup_s.append(dt)
    s = setups[-1]
    for st in setups:
        for code in st["codes"]:
            run.check(code == 0, "setup command returned non-zero")
    test = mhcvse.data.load_dataset(s["test"])
    test_ids = test.image_ids

    _cli_pass(run, s, test_ids)   # warm-up, as on gallery
    passes = run.repeat(lambda: _cli_pass(run, s, test_ids))
    _check_cli(run, s, passes)
    run.attempted += len(passes)   # the fresh-interpreter imports

    m = run.metrics
    m["setup_s"] = statistics.median(setup_s)
    m["wall_s"] = statistics.median(p["wall"] for p in passes)
    m["items_per_s"] = (len(test.image_ids) + len(test.captions)) / statistics.median(
        c[2][2] for p in passes for c in p["cmds"] if c[0] == "eval")
    m["checkpoint_kb"] = checkpoint_kb(s["ckpt"])
    m["peak_rss_mb"] = rss_mb()

    if run.trace:
        n_cmds = len(passes[0]["cmds"])

        def layers(view):
            tot = view()
            out = block_metrics(tot, n_cmds)
            out.update(pass_metrics(tot, n_cmds))
            per_retrieve = view("cli.retrieve")
            n_retrieve = _get(tot, "cli.retrieve", "calls")
            out["cli.retrieve_image_calls"] = (
                _get(per_retrieve, "encoders.image", "calls") / n_retrieve)
            out["cli.retrieve_text_calls"] = (
                _get(per_retrieve, "encoders.text", "calls") / n_retrieve)
            out["data.synth_ms"] = 1e3 * _get(tot, "cli.synth", "s")
            out["cli.lr_curve_ms"] = 1e3 * _get(tot, "cli.lr-curve", "s")
            return out
        traced = run.traced(lambda: s, lambda s: _cli_pass(run, s, test_ids), layers)
        _check_cli(run, s, traced)
        run.metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - m["wall_s"])
        run.metrics["cli.import_scipy_ms"] = scipy_import_ms(
            fresh_import(run.root, ("-X", "importtime")))


WORKLOADS = {"train": train, "gallery": gallery, "cli": cli}
