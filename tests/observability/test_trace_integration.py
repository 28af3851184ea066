"""End-to-end tracing through the analysis sweeps on a real trained SPNN.

The ISSUE invariants, asserted against the engine's actual hot seams:
traced runs are bit-identical to untraced runs, the merged chunk frames
reconstruct exactly the schedule the engine planned, and kernel-dispatch
records name real registry kernels.
"""

import numpy as np
import pytest

from repro.analysis.yield_analysis import yield_sweep
from repro.observability import MetricsReport, observe
from repro.variation import UncertaintyModel


def _yield_kwargs():
    return dict(sigmas=(0.0, 0.02, 0.05), iterations=6, rng=13)


class TestYieldSweepTracing:
    @pytest.fixture(scope="class")
    def traced(self, small_task):
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        untraced = yield_sweep(small_task.spnn, features, labels, **_yield_kwargs())
        with observe() as rec:
            traced = yield_sweep(small_task.spnn, features, labels, **_yield_kwargs())
        return untraced, traced, rec

    def test_traced_run_is_bit_identical(self, traced):
        untraced, sweep, _ = traced
        for sigma in _yield_kwargs()["sigmas"]:
            assert np.array_equal(
                untraced.accuracy_samples[sigma], sweep.accuracy_samples[sigma]
            )

    def test_sweep_span_is_recorded_with_attrs(self, traced):
        _, _, rec = traced
        (span,) = [s for s in rec.spans if s.name == "yield/sweep"]
        assert span.attrs["sigmas"] == 3
        assert span.attrs["iterations"] == 6
        assert span.seconds > 0.0

    def test_folded_mc_span_nests_under_the_sweep(self, traced):
        _, _, rec = traced
        sweep_span = next(s for s in rec.spans if s.name == "yield/sweep")
        folded = [s for s in rec.spans if s.name == "mc/run"]
        assert folded, "the folded device pass must be spanned"
        assert all(s.parent_id == sweep_span.span_id for s in folded)

    def test_hosting_span_accounts_registered_bytes(self, small_task):
        """Hosting the sweep's inputs (parallel backends only) is spanned."""
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        with observe() as rec:
            yield_sweep(
                small_task.spnn, features, labels, workers=2, **_yield_kwargs()
            )
        (host,) = [s for s in rec.spans if s.name == "hosting"]
        assert host.attrs["objects"] == 3  # features, labels, network
        assert host.attrs["bytes"] > features.nbytes + labels.nbytes

    def test_in_process_sweep_hosts_nothing(self, traced):
        """Thread and serial sweeps read the plain inputs: no hosting span."""
        _, _, rec = traced
        assert not [s for s in rec.spans if s.name == "hosting"]

    def test_frames_cover_the_folded_batch(self, traced):
        _, _, rec = traced
        frames = [f for f in rec.frames if f.label == "yield"]
        assert frames, "folded chunks must produce frames"
        # The folded pass evaluates sigmas x iterations rows minus the
        # sigma=0 short-circuit (2 non-zero sigmas x 6 iterations here).
        assert sum(f.count for f in frames) == 12
        assert [f.start for f in frames] == sorted(f.start for f in frames)

    def test_dispatches_name_registry_kernels(self, traced):
        from repro.arrays import select_sweep_kernel
        from repro.arrays.sweep import sweep_kernel_names

        _, _, rec = traced
        report = MetricsReport.from_recorder(rec)
        assert report.kernels, "mesh forwards must record column-sweep dispatches"
        known = set(sweep_kernel_names())
        for entry in report.kernels:
            assert entry["kernel"] in known
            assert entry["calls"] >= 1
            # The (16, 16, 16, 10) test SPNN compiles 16x16 and 10x10 meshes.
            assert entry["n"] in (10, 16)
        # Kernel choice is static: every shape and every call goes to the
        # same kernel (fused), never to looped.
        static = select_sweep_kernel().name
        assert static != "looped"
        assert {entry["kernel"] for entry in report.kernels} == {static}

    def test_chunk_schedule_reconstructs_the_plan(self, small_task):
        """The CI trace-smoke assertion, in miniature: frames == plan.

        The folded pass tiles its rows (non-zero sigmas x iterations) into
        contiguous equal chunks; the merged frames must reproduce exactly
        that plan — same chunk size throughout, contiguous, in order,
        covering every row once.
        """
        rows = 12  # 2 non-zero sigmas x 6 iterations, folded
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        with observe() as rec:
            yield_sweep(
                small_task.spnn, features, labels, workers=2, **_yield_kwargs()
            )
        schedule = MetricsReport.from_recorder(rec).chunk_schedule(label="yield")
        assert schedule, "the folded pass must leave chunk frames"
        chunk = schedule[0][1]
        expected = [
            (start, min(chunk, rows - start)) for start in range(0, rows, chunk)
        ]
        assert schedule == expected
        # And the observed chunk size is the planner's, not an accident.
        folded_span = next(s for s in rec.spans if s.name == "mc/run")
        assert folded_span.attrs["chunk_size"] == chunk
        assert folded_span.attrs["chunks"] == len(schedule)

    def test_traced_sharded_run_matches_serial(self, small_task):
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        serial = yield_sweep(small_task.spnn, features, labels, **_yield_kwargs())
        with observe():
            sharded = yield_sweep(
                small_task.spnn, features, labels, workers=2, **_yield_kwargs()
            )
        for sigma in _yield_kwargs()["sigmas"]:
            assert np.array_equal(
                serial.accuracy_samples[sigma], sharded.accuracy_samples[sigma]
            )


class TestTimelineTracing:
    def _sweep(self, small_task):
        from repro.variation.process import OrnsteinUhlenbeckProcess

        return dict(
            model=UncertaintyModel.phase_only(0.08),
            process=OrnsteinUhlenbeckProcess(correlation_time=4.0),
            num_steps=3,
            timelines=6,
            rng=5,
        )

    def test_traced_timeline_sweep_is_bit_identical(self, small_task):
        from repro.analysis.timeline import timeline_sweep

        kwargs = self._sweep(small_task)
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        [untraced] = timeline_sweep(small_task.spnn, features, labels, **kwargs)
        with observe() as rec:
            [traced] = timeline_sweep(small_task.spnn, features, labels, **kwargs)
        np.testing.assert_array_equal(untraced.accuracy, traced.accuracy)
        np.testing.assert_array_equal(untraced.recalibrations, traced.recalibrations)
        (span,) = [s for s in rec.spans if s.name == "timeline/sweep"]
        assert span.attrs["timelines"] == 6
        assert span.attrs["steps"] == 3
        assert [f.label for f in rec.frames].count("timeline") == len(rec.frames)


class TestTrainingTracing:
    def test_noise_step_spans_record_draws(self):
        from repro.nn.activations import LogSoftmax, Modulus
        from repro.nn.layers import ComplexLinear
        from repro.nn.losses import CrossEntropyLoss
        from repro.nn.module import Sequential
        from repro.nn.optim import Adam
        from repro.nn.trainer import TrainerConfig
        from repro.training.injector import NoiseInjector
        from repro.training.noise_aware import NoiseAwareTrainer

        rng = np.random.default_rng(1)
        features = rng.standard_normal((32, 4))
        targets = rng.integers(0, 3, size=32)

        def build():
            model = Sequential(ComplexLinear(4, 3, rng=2), Modulus(), LogSoftmax())
            return model, NoiseAwareTrainer(
                model,
                Adam(model.parameters(), lr=0.01),
                NoiseInjector(UncertaintyModel.both(0.01), draws=2, recompile_every=2, rng=3),
                loss_fn=CrossEntropyLoss(from_log_probs=True),
                config=TrainerConfig(epochs=2, batch_size=16),
                rng=0,
            )

        model_a, trainer_a = build()
        trainer_a.fit(features, targets)
        model_b, trainer_b = build()
        with observe() as rec:
            trainer_b.fit(features, targets)

        # Bit-identity: tracing must not perturb the training trajectory.
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key])

        steps = [s for s in rec.spans if s.name == "train/noise_step"]
        assert len(steps) == 4  # 2 epochs x 2 minibatches
        assert all(s.attrs["draws"] == 2 for s in steps)
        assert all(s.attrs["batch"] == 16 for s in steps)
        assert {s.attrs["epoch"] for s in steps} == {0, 1}
