import pytest

from funnelkit import Label, Labeling, PartialLabeling


def test_label_values():
    assert Label.FORK.value == "F"
    assert Label.MERGE.value == "M"
    assert repr(Label.FORK) == "F"


def test_unassigned_and_total():
    lab = Labeling.unassigned(3)
    assert len(lab) == 3
    assert not lab.is_total()
    assert lab[0] is None
    lab[0] = Label.FORK
    lab[1] = Label.MERGE
    lab[2] = Label.MERGE
    assert lab.is_total()
    assert list(lab) == [Label.FORK, Label.MERGE, Label.MERGE]


def test_require_total_names_first_gap():
    lab = Labeling.unassigned(4)
    lab[0] = Label.FORK
    lab[2] = Label.MERGE
    with pytest.raises(PartialLabeling, match="vertex 1"):
        lab.require_total()


def test_round_trip_text():
    lab = Labeling.unassigned(4)
    lab[0] = Label.FORK
    lab[3] = Label.MERGE
    text = lab.to_text()
    assert text == "0 F\n3 M"
    back = Labeling.from_text(text, 4)
    assert back == lab


def test_from_text_parses_comments_and_blanks():
    text = "# header\n\n0 F\n1 M  # trailing\n"
    lab = Labeling.from_text(text, 2)
    assert lab[0] is Label.FORK
    assert lab[1] is Label.MERGE


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Labeling.from_text("0 X", 1)
    with pytest.raises(ValueError):
        Labeling.from_text("7 F", 2)
    with pytest.raises(ValueError):
        Labeling.from_text("0 F\n0 M", 2)


@pytest.mark.parametrize(
    "text", ["0 F\nx M", "0 F\n1 X", "0 F\n0_1 M", "0 F\n+1 M", "0 F\n\u0661 M"]
)
def test_from_text_names_the_line_of_a_bad_token(text):
    with pytest.raises(ValueError, match="^line 2: "):
        Labeling.from_text(text, 3)


def test_copy_is_independent():
    lab = Labeling.unassigned(2)
    lab[0] = Label.FORK
    dup = lab.copy()
    dup[0] = Label.MERGE
    assert lab[0] is Label.FORK
    assert dup != lab


def test_setitem_bounds():
    lab = Labeling.unassigned(2)
    with pytest.raises(IndexError):
        lab[5] = Label.FORK


def test_repr_shows_assignment():
    lab = Labeling.unassigned(3)
    lab[1] = Label.MERGE
    assert "M" in repr(lab)
