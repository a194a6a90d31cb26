"""Fig. 14's per-epoch averages: each meter sample counts in one epoch."""

from repro.experiments import fig14_convergence as fig14
from repro.experiments.common import DCTCP


def test_every_full_epoch_averages_one_sample_per_meter_tick():
    """An active flow's rate in an epoch is the mean of exactly
    ``epoch / interval`` meter samples, those in (t_mid - epoch/2,
    t_mid + epoch/2]; no sample counts in two epochs.  A closed window
    counts a boundary sample twice, and meters whose ticks drift off
    their grid put a boundary sample in the wrong epoch: either way an
    epoch averages 9 or 11 samples."""
    epoch = 0.05
    sc = fig14._scenario(DCTCP, epoch, seed=0)
    out = fig14._cell(sc.to_json(), epoch)
    interval = sc.duration / 100.0
    per_epoch = round(epoch / interval)
    assert per_epoch == 10
    owner = {}
    checked = 0
    for k, row in enumerate(out["epochs"]):
        t_mid = (k + 0.5) * epoch
        active = [i for i, f in enumerate(sc.flows)
                  if f.start <= t_mid <= f.stop]
        assert row["active"] == len(active)
        for i, rate_mbps in zip(active, row["rates_mbps"]):
            window = [(j, v) for j, (t, v) in enumerate(out["series_bps"][i])
                      if k * per_epoch < round(t / interval)
                      <= (k + 1) * per_epoch]
            assert len(window) == per_epoch, (k, i)
            values = [v for _j, v in window]
            assert rate_mbps == sum(values) / len(values) / 1e6, (k, i)
            for j, _v in window:
                assert owner.setdefault((i, j), k) == k
            checked += 1
    assert checked == 29  # 1+2+3+4+5+5+4+3+2 active flow-epochs
