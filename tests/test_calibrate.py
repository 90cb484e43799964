import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "calibrate.py")


def test_calibration_is_reproduced(calibration):
    # The committed pins move only by rerunning tools/calibrate.py.
    spec = importlib.util.spec_from_file_location("calibrate", TOOL)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    assert calibrate.measure() == calibration
