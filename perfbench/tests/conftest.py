import sys
from pathlib import Path

# the benchmark's modules are scripts in perfbench/, imported by bare name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
