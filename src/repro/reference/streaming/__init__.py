"""The Figure 7 streaming-pipeline simulator and its PCIe/buffer models."""
