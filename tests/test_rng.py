import numpy as np
import pytest

from dictatest.rng import _draw_blocks, derive_rng

# (x, y, z, edge) column counts; several give an odd m·(3k+|E|) for odd m, so
# a block can start on the high 32-bit half of a random_raw word.
COLUMNS = [(3, 3, 3, 4), (4, 4, 4, 11), (2, 2, 2, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("cols", COLUMNS, ids=lambda cols: "-".join(map(str, cols)))
def test_draw_blocks_equal_integers_block_by_block(cols):
    """_draw_blocks is the stream of one rng.integers(0, 2^n, size=(m, c)) call
    per block.  This holds while numpy's integers draws a power-of-two range
    as the top n bits of each 32-bit half of random_raw; if a numpy release
    changes that algorithm, this test fails and the pinned MC values move."""
    for n in range(1, 33):
        for m in (1, 3, 777, 4096):
            expected = derive_rng(17, n, m)
            blocks = _draw_blocks(derive_rng(17, n, m), m, n, cols)
            assert len(blocks) == len(cols)
            for block, c in zip(blocks, cols):
                reference = expected.integers(0, 1 << n, size=(m, c))
                assert block.dtype == np.uint32 and block.shape == (c, m)
                assert block.flags.c_contiguous
                assert (block == reference.T).all(), (n, m, c)


@pytest.mark.parametrize("n", [0, -1, 33, 64])
def test_draw_blocks_reject_n_outside_1_to_32(n):
    with pytest.raises(ValueError, match=r"n must be in \[1, 32\]"):
        _draw_blocks(derive_rng(0), 4, n, (1, 1, 1, 1))

