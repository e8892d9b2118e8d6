import os

import pytest

from shotgenre import featurestore as fs

try:
    from hypothesis import settings
except ImportError:  # the property-test modules then fail to collect on their own
    pass
else:
    # CI runs every property test on the same examples, so a CI failure
    # reproduces locally with CI=1
    settings.register_profile("ci", derandomize=True, deadline=None)
    if os.environ.get("CI"):
        settings.load_profile("ci")


@pytest.fixture(scope="session")
def planted():
    """Small low-noise planted dataset shared across training tests."""
    cfg = fs.SynthConfig(num_videos=200, num_genres=5, d_v=8, d_a=8, d_l=8,
                         shots_per_video=6, frames_per_shot=3,
                         noise_sigma_v=0.05, noise_sigma_a=0.05, noise_sigma_l=0.1)
    dataset, table, truth = fs.synth_dataset(cfg, seed=77)
    return cfg, dataset, table, truth
