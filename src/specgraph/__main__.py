"""``python -m specgraph``: the same command line as the ``specgraph`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
