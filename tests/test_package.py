import vcsfm


def test_every_exported_name_resolves():
    assert len(set(vcsfm.__all__)) == len(vcsfm.__all__)
    for name in vcsfm.__all__:
        assert getattr(vcsfm, name) is not None, name
