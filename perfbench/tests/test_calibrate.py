import calibrate


def test_scale_maps_the_kernel_time_to_the_reference():
    samples = [2e-3] * 10
    assert calibrate.scale(samples, 4) == calibrate.REF_SECONDS / 2e-3


def test_scale_ignores_one_interrupted_kernel_run():
    samples = [1e-3] * 10
    samples[5] = 50e-3
    assert calibrate.scale(samples, 4) == calibrate.scale([1e-3] * 10, 4)


def test_scale_follows_a_spell_of_the_host():
    samples = [1e-3] * 5 + [2e-3] * 10
    assert calibrate.scale(samples, 1) == calibrate.REF_SECONDS / 1e-3
    assert calibrate.scale(samples, 9) == calibrate.REF_SECONDS / 2e-3


def test_scale_at_the_ends_of_a_round():
    assert calibrate.scale([1e-3, 3e-3], 0) == calibrate.REF_SECONDS / 2e-3
    assert calibrate.scale([1e-3] * 4, 2) == calibrate.REF_SECONDS / 1e-3


def test_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.kernel_seconds() > 0
