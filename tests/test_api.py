import converg


def test_every_public_name_resolves():
    assert converg.__all__, "converg exports nothing"
    assert len(set(converg.__all__)) == len(converg.__all__)
    missing = [name for name in converg.__all__ if not hasattr(converg, name)]
    assert missing == []
