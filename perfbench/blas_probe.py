"""Time siren.forward_batch at the eval-batch and train-b1 shapes.

The traced run starts this in a child process with OPENBLAS_NUM_THREADS=1,
since the BLAS thread count can only be set before NumPy loads. Prints one
JSON line: median milliseconds per call for each shape.
"""

import json

from run import import_package

if __name__ == "__main__":
    import_package()
    import stages

    print(json.dumps(stages.time_forward()))
