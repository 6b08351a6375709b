import os

# One OpenBLAS thread, as perfbench pins it: an unpinned OpenBLAS spins a
# second thread for the interpolator's small products and doubles CPU time.
# This must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
