import numpy as np
import pytest

from dictatest.rng import _MC_CHUNK, _draw_blocks, derive_rng, mc_draws

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
                # the transposed view of the block's (m, c) slice of one buffer
                assert block.T.flags.c_contiguous and block.base is blocks[0].base
                assert (block == reference.T).all(), (n, m, c)


@pytest.mark.parametrize("n", [0, -1, 33, 64])
def test_draw_blocks_reject_n_outside_1_to_32(n):
    with pytest.raises(ValueError, match=r"n must be in \[1, 32\]"):
        _draw_blocks(derive_rng(0), 4, n, (1, 1, 1, 1))



@pytest.mark.parametrize("trials", [1, _MC_CHUNK - 1, _MC_CHUNK, 2 * _MC_CHUNK + 5])
@pytest.mark.parametrize("seed, key", [(9, (9,)), ((5, 1), (5, 1))])
def test_mc_draws_are_the_chunk_blocks(trials, seed, key):
    """Chunk c is _draw_blocks of the sub-stream (seed, c), holding _MC_CHUNK
    trials except for a last, smaller chunk; the chunks hold ``trials``, and
    fewer than one trial is refused."""
    n, cols = 7, (2, 1, 3)
    chunks = list(mc_draws(trials, seed, n, cols))
    sizes = [blocks[0].shape[1] for blocks in chunks]
    assert sum(sizes) == trials and all(m == _MC_CHUNK for m in sizes[:-1])
    for c, (blocks, m) in enumerate(zip(chunks, sizes)):
        expected = _draw_blocks(derive_rng(*key, c), m, n, cols)
        assert len(blocks) == len(cols)
        for block, reference in zip(blocks, expected):
            assert block.dtype == np.uint32 and np.array_equal(block, reference)
    for empty in (0, -trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_draws(empty, seed, n, cols)  # raised at the call, before any chunk
